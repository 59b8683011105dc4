// Network front-end tests (docs/SERVING.md).
//
// Three layers, in increasing realism:
//   1. Protocol conformance on the pure codec: round trips, truncation at
//      every byte boundary, hostile headers (bad magic/version/type,
//      oversized lengths), payload malformations, poisoned-decoder
//      semantics. No sockets.
//   2. Loopback e2e: a real listening net::Server with concurrent TCP
//      clients; every MEM list that crosses the wire must be bit-identical
//      to a direct in-process Engine/MemService run — including registry
//      tenant routing and copMEM fast-index mode.
//   3. Admission + robustness: queue-full answers a typed OVERLOAD frame,
//      per-tenant quotas exhaust typed, deadlines expired while queued come
//      back kExpired with serve.deadline_miss accounted, slow-loris and
//      mid-request disconnects never hang the loop, and shutdown drains.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "seq/synthetic.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "store/artifact.h"
#include "util/checksum.h"

namespace gm {
namespace {

using net::Client;
using net::ErrorCode;
using net::FrameDecoder;
using net::FrameType;
using net::QueryFrame;
using net::Reply;
using net::ResultFrame;
using net::ServerConfig;

core::Config small_config() {
  core::Config cfg;
  cfg.min_length = 12;
  cfg.seed_len = 6;
  cfg.threads = 16;
  cfg.tile_blocks = 2;
  return cfg;
}

seq::Sequence test_reference(std::size_t length, std::uint64_t seed) {
  return seq::GenomeModel{.length = length}.generate(seed);
}

seq::Sequence derived_query(const seq::Sequence& ref, std::uint64_t seed,
                            double snp_rate = 0.02) {
  seq::MutationModel mut;
  mut.snp_rate = snp_rate;
  mut.indel_rate = 0.003;
  return mut.apply(ref, seed);
}

std::vector<std::uint8_t> sample_query_frame() {
  QueryFrame q;
  q.id = "req-1";
  q.tenant = "alpha";
  q.query = "ACGTACGTACGT";
  q.deadline_ms = 250;
  return net::encode_query(q);
}

// --- 1. protocol conformance (no sockets) ----------------------------------

TEST(Protocol, QueryRoundTrip) {
  QueryFrame q;
  q.id = "id-42";
  q.tenant = "t";
  q.query = "ACGTNNACGT";
  q.deadline_ms = 1234;
  q.min_length = 77;
  const auto bytes = net::encode_query(q);

  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  FrameDecoder::Frame frame;
  ErrorCode err;
  std::string msg;
  ASSERT_EQ(dec.next(frame, err, msg), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.type, FrameType::kQuery);

  QueryFrame back;
  std::string perr;
  ASSERT_TRUE(net::parse_query(frame.payload, back, perr)) << perr;
  EXPECT_EQ(back.id, q.id);
  EXPECT_EQ(back.tenant, q.tenant);
  EXPECT_EQ(back.query, q.query);
  EXPECT_EQ(back.deadline_ms, q.deadline_ms);
  EXPECT_EQ(back.min_length, q.min_length);
}

TEST(Protocol, ResultRoundTripWithMems) {
  ResultFrame r;
  r.id = "resp";
  r.warm = true;
  r.queue_us = 17;
  r.service_us = 4200;
  r.mems = {{10, 20, 30}, {40, 50, 60}, {0, 0, 12}};
  const auto bytes = net::encode_result(r);

  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  FrameDecoder::Frame frame;
  ErrorCode err;
  std::string msg;
  ASSERT_EQ(dec.next(frame, err, msg), FrameDecoder::Status::kFrame);
  ASSERT_EQ(frame.type, FrameType::kResult);

  ResultFrame back;
  std::string perr;
  ASSERT_TRUE(net::parse_result(frame.payload, back, perr)) << perr;
  EXPECT_EQ(back.id, r.id);
  EXPECT_EQ(back.warm, r.warm);
  EXPECT_EQ(back.queue_us, r.queue_us);
  EXPECT_EQ(back.service_us, r.service_us);
  EXPECT_EQ(back.mems, r.mems);
}

TEST(Protocol, ResultPayloadBoundIsExactAtTheFrameLimit) {
  // The size function is the encoder's own arithmetic ...
  ResultFrame r;
  r.id = "resp";
  r.mems = {{10, 20, 30}, {40, 50, 60}};
  EXPECT_EQ(net::encode_result(r).size(),
            net::kHeaderBytes + net::result_payload_bytes(r.id.size(), 2));
  // ... so the server can test a result against the 64 MiB bound without
  // building it: a 1-byte id leaves room for exactly 5592404 MEMs.
  const std::size_t fit = 5592404;
  EXPECT_EQ(net::result_payload_bytes(1, fit), net::kMaxPayloadBytes);
  EXPECT_GT(net::result_payload_bytes(1, fit + 1), net::kMaxPayloadBytes);
  // The u16 id length caps what an id can add.
  EXPECT_EQ(net::result_payload_bytes(1 << 20, 0),
            net::result_payload_bytes(0xFFFF, 0));
  // The error is per request: the connection stays usable.
  EXPECT_FALSE(net::closes_connection(ErrorCode::kResultTooLarge));
  EXPECT_STREQ(net::to_string(ErrorCode::kResultTooLarge), "result-too-large");
}

TEST(Protocol, ErrorRoundTrip) {
  net::ErrorFrame e;
  e.code = ErrorCode::kQuotaExceeded;
  e.id = "q7";
  e.message = "tenant over quota";
  const auto bytes = net::encode_error(e);

  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  FrameDecoder::Frame frame;
  ErrorCode err;
  std::string msg;
  ASSERT_EQ(dec.next(frame, err, msg), FrameDecoder::Status::kFrame);
  ASSERT_EQ(frame.type, FrameType::kError);

  net::ErrorFrame back;
  std::string perr;
  ASSERT_TRUE(net::parse_error(frame.payload, back, perr)) << perr;
  EXPECT_EQ(back.code, e.code);
  EXPECT_EQ(back.id, e.id);
  EXPECT_EQ(back.message, e.message);
}

TEST(Protocol, TruncationAtEveryBoundaryNeedsMoreNeverErrors) {
  const auto bytes = sample_query_frame();
  ASSERT_GT(bytes.size(), net::kHeaderBytes);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameDecoder dec;
    dec.feed(bytes.data(), cut);
    FrameDecoder::Frame frame;
    ErrorCode err;
    std::string msg;
    EXPECT_EQ(dec.next(frame, err, msg), FrameDecoder::Status::kNeedMore)
        << "prefix of " << cut << " bytes";
    // Completing the frame afterwards must still decode it.
    dec.feed(bytes.data() + cut, bytes.size() - cut);
    EXPECT_EQ(dec.next(frame, err, msg), FrameDecoder::Status::kFrame)
        << "completion after " << cut << " bytes";
  }
}

TEST(Protocol, SlowLorisSingleByteFeedDecodes) {
  const auto bytes = sample_query_frame();
  FrameDecoder dec;
  FrameDecoder::Frame frame;
  ErrorCode err;
  std::string msg;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    dec.feed(&bytes[i], 1);
    ASSERT_EQ(dec.next(frame, err, msg), FrameDecoder::Status::kNeedMore)
        << "byte " << i;
  }
  dec.feed(&bytes.back(), 1);
  ASSERT_EQ(dec.next(frame, err, msg), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.type, FrameType::kQuery);
}

TEST(Protocol, BadMagicPoisonsForever) {
  auto bytes = sample_query_frame();
  bytes[0] = 'X';
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  FrameDecoder::Frame frame;
  ErrorCode err;
  std::string msg;
  ASSERT_EQ(dec.next(frame, err, msg), FrameDecoder::Status::kError);
  EXPECT_EQ(err, ErrorCode::kBadMagic);
  EXPECT_TRUE(net::closes_connection(err));

  // No resync: a perfectly valid frame after the poison still errors.
  const auto good = sample_query_frame();
  dec.feed(good.data(), good.size());
  ASSERT_EQ(dec.next(frame, err, msg), FrameDecoder::Status::kError);
  EXPECT_EQ(err, ErrorCode::kBadMagic);
}

TEST(Protocol, BadVersionIsTyped) {
  auto bytes = sample_query_frame();
  bytes[4] = net::kVersion + 1;
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  FrameDecoder::Frame frame;
  ErrorCode err;
  std::string msg;
  ASSERT_EQ(dec.next(frame, err, msg), FrameDecoder::Status::kError);
  EXPECT_EQ(err, ErrorCode::kBadVersion);
}

TEST(Protocol, UnknownFrameTypeIsTyped) {
  auto bytes = sample_query_frame();
  bytes[5] = 0x7F;
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  FrameDecoder::Frame frame;
  ErrorCode err;
  std::string msg;
  ASSERT_EQ(dec.next(frame, err, msg), FrameDecoder::Status::kError);
  EXPECT_EQ(err, ErrorCode::kBadType);
}

TEST(Protocol, OversizedLengthFieldIsTypedBeforeAllocation) {
  auto bytes = sample_query_frame();
  // payload_len lives at bytes [8,12): claim ~4 GiB.
  bytes[8] = bytes[9] = bytes[10] = bytes[11] = 0xFF;
  FrameDecoder dec;
  dec.feed(bytes.data(), net::kHeaderBytes);  // header alone is enough
  FrameDecoder::Frame frame;
  ErrorCode err;
  std::string msg;
  ASSERT_EQ(dec.next(frame, err, msg), FrameDecoder::Status::kError);
  EXPECT_EQ(err, ErrorCode::kOversized);
}

TEST(Protocol, ServerFrameBoundTightensOversized) {
  const auto bytes = sample_query_frame();  // payload well under 64 MiB
  FrameDecoder dec(/*max_payload=*/4);      // but this server caps at 4 B
  dec.feed(bytes.data(), bytes.size());
  FrameDecoder::Frame frame;
  ErrorCode err;
  std::string msg;
  ASSERT_EQ(dec.next(frame, err, msg), FrameDecoder::Status::kError);
  EXPECT_EQ(err, ErrorCode::kOversized);
}

TEST(Protocol, BackToBackFramesDecodeInOrder) {
  QueryFrame q1, q2;
  q1.id = "a";
  q1.query = "ACGT";
  q2.id = "b";
  q2.query = "TTTT";
  auto bytes = net::encode_query(q1);
  const auto second = net::encode_query(q2);
  bytes.insert(bytes.end(), second.begin(), second.end());

  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  FrameDecoder::Frame frame;
  ErrorCode err;
  std::string msg;
  QueryFrame back;
  std::string perr;
  ASSERT_EQ(dec.next(frame, err, msg), FrameDecoder::Status::kFrame);
  ASSERT_TRUE(net::parse_query(frame.payload, back, perr));
  EXPECT_EQ(back.id, "a");
  ASSERT_EQ(dec.next(frame, err, msg), FrameDecoder::Status::kFrame);
  ASSERT_TRUE(net::parse_query(frame.payload, back, perr));
  EXPECT_EQ(back.id, "b");
  EXPECT_EQ(dec.next(frame, err, msg), FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(Protocol, QueryPayloadLengthMismatchIsMalformed) {
  QueryFrame q;
  q.id = "x";
  q.query = "ACGTACGT";
  auto bytes = net::encode_query(q);
  // Shrink the inner query_len field (just before the query bytes) so it
  // disagrees with the payload extent: trailing garbage must be rejected.
  const std::size_t query_len_at = bytes.size() - q.query.size() - 4;
  bytes[query_len_at] = 2;

  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  FrameDecoder::Frame frame;
  ErrorCode err;
  std::string msg;
  ASSERT_EQ(dec.next(frame, err, msg), FrameDecoder::Status::kFrame);
  QueryFrame back;
  std::string perr;
  EXPECT_FALSE(net::parse_query(frame.payload, back, perr));
  EXPECT_FALSE(perr.empty());
}

TEST(Protocol, ResultMemCountDisagreeingWithPayloadIsMalformed) {
  ResultFrame r;
  r.id = "y";
  r.mems = {{1, 2, 3}};
  auto bytes = net::encode_result(r);
  // mem_count sits 12 bytes before the single MEM record; claim 2 MEMs.
  bytes[bytes.size() - 12 - 4] = 2;

  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  FrameDecoder::Frame frame;
  ErrorCode err;
  std::string msg;
  ASSERT_EQ(dec.next(frame, err, msg), FrameDecoder::Status::kFrame);
  ResultFrame back;
  std::string perr;
  EXPECT_FALSE(net::parse_result(frame.payload, back, perr));
}

TEST(Protocol, CursorStringOverrunFailsInsteadOfReadingPast) {
  // A payload claiming a 200-byte string but holding 3.
  std::vector<std::uint8_t> payload = {200, 0, 'a', 'b', 'c'};
  net::Cursor c(payload.data(), payload.size());
  EXPECT_EQ(c.string16(), "");
  EXPECT_TRUE(c.failed());
  EXPECT_FALSE(c.exhausted());
}

// --- 2. loopback e2e -------------------------------------------------------

class NetLoopback : public ::testing::Test {
 protected:
  void SetUp() override {
    ref_ = test_reference(2500, 91);
    serve::ServiceConfig scfg;
    scfg.engine = small_config();
    service_ = std::make_unique<serve::MemService>(scfg, ref_);
  }

  std::unique_ptr<net::Server> make_server(ServerConfig cfg = {}) {
    return std::make_unique<net::Server>(cfg, *service_);
  }

  seq::Sequence ref_;
  std::unique_ptr<serve::MemService> service_;
};

TEST_F(NetLoopback, PingPong) {
  auto server = make_server();
  Client client(server->port());
  EXPECT_TRUE(client.ping());
  EXPECT_TRUE(client.ping());  // connection stays usable
}

TEST_F(NetLoopback, SingleQueryBitIdenticalToDirectEngineRun) {
  auto server = make_server();
  const auto query = derived_query(ref_, 92);
  const auto direct = core::Engine(small_config()).run(ref_, query);
  ASSERT_FALSE(direct.mems.empty());

  Client client(server->port());
  QueryFrame qf;
  qf.id = "q1";
  qf.query = query.to_string();
  Reply reply;
  ASSERT_TRUE(client.query(qf, reply));
  ASSERT_TRUE(reply.ok()) << to_string(reply.error.code) << ": "
                          << reply.error.message;
  EXPECT_EQ(reply.result.id, "q1");
  EXPECT_EQ(reply.result.mems, direct.mems);
}

TEST_F(NetLoopback, ConcurrentClientsAllBitIdentical) {
  auto server = make_server();
  constexpr int kClients = 4;
  constexpr int kQueriesEach = 3;

  // Appended piecewise: GCC 12 reports a false -Wrestrict on
  // `"c" + std::to_string(c)`.
  const auto query_id = [](int c, int i) {
    std::string id = "c";
    id += std::to_string(c);
    id += '-';
    id += std::to_string(i);
    return id;
  };

  // Direct answers first, one per (client, query) pair.
  std::map<std::string, std::vector<mem::Mem>> expected;
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kQueriesEach; ++i) {
      const auto query = derived_query(ref_, 100 + c * 16 + i);
      expected[query_id(c, i)] =
          core::Engine(small_config()).run(ref_, query).mems;
    }
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(server->port());
      for (int i = 0; i < kQueriesEach; ++i) {
        const auto query = derived_query(ref_, 100 + c * 16 + i);
        QueryFrame qf;
        qf.id = query_id(c, i);
        qf.query = query.to_string();
        Reply reply;
        if (!client.query(qf, reply) || !reply.ok() ||
            reply.result.id != qf.id ||
            reply.result.mems != expected[qf.id]) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  const net::NetStats stats = server->stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.responses_ok,
            static_cast<std::uint64_t>(kClients * kQueriesEach));
  EXPECT_EQ(stats.malformed, 0u);
}

TEST_F(NetLoopback, CheckLoopbackCountsIdenticalMismatchedAndLost) {
  auto server = make_server();
  std::vector<net::LoopbackCase> cases(5);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto query = derived_query(ref_, 200 + i);
    cases[i].frame.id = "lb";
    cases[i].frame.id += std::to_string(i);
    cases[i].frame.query = query.to_string();
    cases[i].expected_ok = true;
    cases[i].expected = core::Engine(small_config()).run(ref_, query).mems;
    ASSERT_FALSE(cases[i].expected.empty());
  }
  cases[1].expected.pop_back();   // a MEM list that differs
  cases[3].expected_ok = false;   // a status that differs
  std::ostringstream log;
  const net::LoopbackCounts n =
      net::check_loopback(server->port(), 2, cases, log);
  EXPECT_EQ(n.identical, 3u);
  EXPECT_EQ(n.mismatched, 2u);
  EXPECT_EQ(n.transport_errors, 0u);
  EXPECT_NE(log.str().find("MISMATCH on lb1"), std::string::npos) << log.str();
  EXPECT_NE(log.str().find("MISMATCH on lb3"), std::string::npos) << log.str();

  // A closed port: each client fails to connect and counts one error.
  const std::uint16_t port = server->port();
  server->shutdown();
  server.reset();
  const net::LoopbackCounts lost = net::check_loopback(port, 3, cases, log);
  EXPECT_EQ(lost.identical, 0u);
  EXPECT_EQ(lost.mismatched, 0u);
  EXPECT_EQ(lost.transport_errors, 3u);
}

TEST_F(NetLoopback, FastIndexModeBitIdenticalOverWire) {
  serve::ServiceConfig scfg;
  scfg.engine = small_config();
  scfg.copmem_fast_index = true;
  serve::MemService fast(scfg, ref_);
  net::Server server(ServerConfig{}, fast);

  const auto query = derived_query(ref_, 93);
  const auto direct = fast.submit({"d", query, 0.0}).get();
  ASSERT_EQ(direct.status, serve::QueryStatus::kOk);

  Client client(server.port());
  QueryFrame qf;
  qf.id = "w";
  qf.query = query.to_string();
  Reply reply;
  ASSERT_TRUE(client.query(qf, reply));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.result.mems, direct.mems);
  EXPECT_TRUE(reply.result.warm);  // fast-index answers are always warm
}

TEST_F(NetLoopback, UnknownTenantInSingleModeIsTyped) {
  auto server = make_server();
  Client client(server->port());
  QueryFrame qf;
  qf.id = "t";
  qf.tenant = "nonexistent";
  qf.query = "ACGTACGTACGTACGT";
  Reply reply;
  ASSERT_TRUE(client.query(qf, reply));
  ASSERT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.error.code, ErrorCode::kUnknownTenant);
  EXPECT_TRUE(client.ping());  // per-request error: connection survives
}

class NetRegistry : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("net-registry-" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::create_directories(dir_);
    cfg_ = small_config();
    for (const char* name : {"alpha", "beta"}) {
      refs_[name] = test_reference(2000, util::fnv1a64(std::string_view(name)));
      store::write_artifact_file(
          (dir_ / (std::string(name) + ".gmidx")).string(),
          store::build_artifact(refs_[name], cfg_));
    }
    serve::ServiceConfig scfg;
    scfg.engine = cfg_;
    registry_ = std::make_unique<serve::ReferenceRegistry>(dir_.string(),
                                                           scfg, 4);
  }

  std::filesystem::path dir_;
  core::Config cfg_;
  std::map<std::string, seq::Sequence> refs_;
  std::unique_ptr<serve::ReferenceRegistry> registry_;
};

TEST_F(NetRegistry, TenantFieldRoutesAndResultsAreBitIdentical) {
  net::Server server(ServerConfig{}, *registry_, /*default_tenant=*/"alpha");
  Client client(server.port());

  for (const char* name : {"alpha", "beta"}) {
    const auto query = derived_query(refs_[name], 7);
    const auto direct = core::Engine(cfg_).run(refs_[name], query);
    QueryFrame qf;
    qf.id = std::string("to-") + name;
    qf.tenant = name;
    qf.query = query.to_string();
    Reply reply;
    ASSERT_TRUE(client.query(qf, reply)) << name;
    ASSERT_TRUE(reply.ok()) << name << ": " << reply.error.message;
    EXPECT_EQ(reply.result.mems, direct.mems) << name;
  }
}

TEST_F(NetRegistry, EmptyTenantFallsBackToDefault) {
  net::Server server(ServerConfig{}, *registry_, "beta");
  Client client(server.port());
  const auto query = derived_query(refs_["beta"], 8);
  const auto direct = core::Engine(cfg_).run(refs_["beta"], query);

  QueryFrame qf;
  qf.id = "default-routed";
  qf.query = query.to_string();
  Reply reply;
  ASSERT_TRUE(client.query(qf, reply));
  ASSERT_TRUE(reply.ok()) << reply.error.message;
  EXPECT_EQ(reply.result.mems, direct.mems);
}

TEST_F(NetRegistry, UnknownTenantIsTypedAndKeepsConnection) {
  net::Server server(ServerConfig{}, *registry_, "alpha");
  Client client(server.port());
  QueryFrame qf;
  qf.id = "nope";
  qf.tenant = "gamma";
  qf.query = "ACGTACGTACGTACGT";
  Reply reply;
  ASSERT_TRUE(client.query(qf, reply));
  ASSERT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.error.code, ErrorCode::kUnknownTenant);
  EXPECT_TRUE(client.ping());
}

// --- 3. hostile input over real sockets ------------------------------------

TEST_F(NetLoopback, GarbageBytesGetTypedErrorThenClose) {
  auto server = make_server();
  Client client(server->port());
  const char garbage[] = "this is not a GMEM frame at all...";
  ASSERT_TRUE(client.send_raw(garbage, sizeof(garbage)));

  Reply reply;
  ASSERT_TRUE(client.read_reply(reply));
  ASSERT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.error.code, ErrorCode::kBadMagic);
  // Stream is poisoned: the server closes after the typed answer.
  EXPECT_FALSE(client.read_reply(reply));

  // The server itself is fine — a fresh client works.
  Client next(server->port());
  EXPECT_TRUE(next.ping());
}

TEST_F(NetLoopback, OversizedLengthFieldRejectedBeforeBuffering) {
  auto server = make_server();
  Client client(server->port());
  auto bytes = sample_query_frame();
  bytes[8] = bytes[9] = bytes[10] = bytes[11] = 0xFF;  // ~4 GiB payload_len
  ASSERT_TRUE(client.send_raw(bytes.data(), net::kHeaderBytes));

  Reply reply;
  ASSERT_TRUE(client.read_reply(reply));
  ASSERT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.error.code, ErrorCode::kOversized);
  EXPECT_FALSE(client.read_reply(reply));  // closed
}

TEST_F(NetLoopback, SlowLorisSingleByteWritesStillAnswered) {
  auto server = make_server();
  const auto query = derived_query(ref_, 94);
  const auto direct = core::Engine(small_config()).run(ref_, query);

  Client client(server->port());
  QueryFrame qf;
  qf.id = "slow";
  qf.query = query.to_string();
  const auto bytes = net::encode_query(qf);
  // One byte per send: the edge-triggered loop must reassemble without
  // blocking any other connection.
  std::thread other([&] {
    Client fast(server->port());
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(fast.ping());
  });
  for (const std::uint8_t b : bytes) {
    ASSERT_TRUE(client.send_raw(&b, 1));
  }
  Reply reply;
  ASSERT_TRUE(client.read_reply(reply));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.result.mems, direct.mems);
  other.join();
}

TEST_F(NetLoopback, MidRequestDisconnectDoesNotWedgeTheServer) {
  auto server = make_server();
  {
    Client client(server->port());
    const auto bytes = sample_query_frame();
    // Half a frame, then vanish.
    ASSERT_TRUE(client.send_raw(bytes.data(), bytes.size() / 2));
  }  // destructor closes the socket
  {
    // Full query then immediate close, before reading the response: the
    // completion must find the dead connection and drop the bytes.
    Client client(server->port());
    const auto query = derived_query(ref_, 95);
    QueryFrame qf;
    qf.id = "ghost";
    qf.query = query.to_string();
    ASSERT_TRUE(client.send_frame(net::encode_query(qf)));
  }
  // Server remains healthy for a well-behaved client.
  Client survivor(server->port());
  const auto query = derived_query(ref_, 96);
  QueryFrame qf;
  qf.id = "alive";
  qf.query = query.to_string();
  Reply reply;
  ASSERT_TRUE(survivor.query(qf, reply));
  EXPECT_TRUE(reply.ok());
}

TEST_F(NetLoopback, ServerDirectionFrameFromClientIsTyped) {
  auto server = make_server();
  Client client(server->port());
  ASSERT_TRUE(client.send_frame(net::encode_pong()));
  Reply reply;
  ASSERT_TRUE(client.read_reply(reply));
  ASSERT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.error.code, ErrorCode::kBadType);
}

TEST_F(NetLoopback, MalformedQueryPayloadIsTyped) {
  auto server = make_server();
  Client client(server->port());
  auto bytes = sample_query_frame();
  // Corrupt the inner query_len so the payload no longer parses.
  bytes[bytes.size() - 12 - 4] = 1;
  ASSERT_TRUE(client.send_raw(bytes.data(), bytes.size()));
  Reply reply;
  ASSERT_TRUE(client.read_reply(reply));
  ASSERT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.error.code, ErrorCode::kMalformed);
}

// --- 4. admission control + robustness -------------------------------------

/// Paused-service fixture: requests queue but never dispatch until
/// resume(), making queue-depth admission behavior deterministic.
class NetAdmission : public ::testing::Test {
 protected:
  void SetUp() override {
    ref_ = test_reference(2000, 97);
    query_ = derived_query(ref_, 98);
  }

  std::unique_ptr<serve::MemService> make_paused_service(
      std::size_t queue_capacity) {
    serve::ServiceConfig scfg;
    scfg.engine = small_config();
    scfg.queue_capacity = queue_capacity;
    scfg.start_paused = true;
    return std::make_unique<serve::MemService>(scfg, ref_);
  }

  QueryFrame make_query(const std::string& id) const {
    QueryFrame qf;
    qf.id = id;
    qf.query = query_.to_string();
    return qf;
  }

  seq::Sequence ref_;
  seq::Sequence query_;
};

TEST_F(NetAdmission, QueueFullShedsTypedOverloadNotDisconnect) {
  auto service = make_paused_service(/*queue_capacity=*/2);
  ServerConfig cfg;
  cfg.shed_fraction = 1.0;  // shed at exactly-full (depth >= 2)
  net::Server server(cfg, *service);

  Client client(server.port());
  // Pipeline 5 queries without reading: 2 fill the paused queue, 3 shed.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.send_frame(net::encode_query(
        make_query("p" + std::to_string(i)))));
  }
  // The three sheds answer immediately, while the queue holds the rest.
  int overloaded = 0;
  for (int i = 0; i < 3; ++i) {
    Reply reply;
    ASSERT_TRUE(client.read_reply(reply)) << "shed reply " << i;
    ASSERT_EQ(reply.type, FrameType::kError);
    EXPECT_EQ(reply.error.code, ErrorCode::kOverloaded);
    ++overloaded;
  }
  EXPECT_EQ(overloaded, 3);

  // Releasing the queue completes the two admitted requests — the same
  // connection, never disconnected, now receives their results.
  service->resume();
  int ok = 0;
  for (int i = 0; i < 2; ++i) {
    Reply reply;
    ASSERT_TRUE(client.read_reply(reply)) << "result reply " << i;
    if (reply.ok()) ++ok;
  }
  EXPECT_EQ(ok, 2);
  EXPECT_GE(server.stats().overloaded, 3u);
}

TEST_F(NetAdmission, TenantQuotaExhaustionIsTyped) {
  auto service = make_paused_service(16);
  ServerConfig cfg;
  cfg.tenant_quota = 1;
  net::Server server(cfg, *service);

  Client client(server.port());
  ASSERT_TRUE(client.send_frame(net::encode_query(make_query("first"))));
  ASSERT_TRUE(client.send_frame(net::encode_query(make_query("second"))));

  Reply reply;
  ASSERT_TRUE(client.read_reply(reply));
  ASSERT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.error.code, ErrorCode::kQuotaExceeded);
  EXPECT_EQ(reply.error.id, "second");

  service->resume();
  ASSERT_TRUE(client.read_reply(reply));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.result.id, "first");

  // Quota released on completion: the tenant can submit again.
  Reply again;
  ASSERT_TRUE(client.query(make_query("third"), again));
  EXPECT_TRUE(again.ok());
  EXPECT_EQ(server.stats().quota_exceeded, 1u);
}

TEST_F(NetAdmission, DeadlineExpiredWhileQueuedIsTypedAndAccounted) {
  auto service = make_paused_service(16);
  net::Server server(ServerConfig{}, *service);

  Client client(server.port());
  QueryFrame qf = make_query("late");
  qf.deadline_ms = 1;
  ASSERT_TRUE(client.send_frame(net::encode_query(qf)));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service->resume();

  Reply reply;
  ASSERT_TRUE(client.read_reply(reply));
  ASSERT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.error.code, ErrorCode::kExpired);

  const serve::ServiceStats stats = service->stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_GE(stats.deadline_miss, 1u);  // the serve.deadline_miss source
}

TEST_F(NetAdmission, EmptyQueryIsTypedInvalidOverTheWire) {
  auto service = make_paused_service(16);
  net::Server server(ServerConfig{}, *service);

  Client client(server.port());
  QueryFrame qf;
  qf.id = "void";
  qf.query = "";
  Reply reply;
  ASSERT_TRUE(client.query(qf, reply));
  ASSERT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.error.code, ErrorCode::kInvalidQuery);
  EXPECT_EQ(reply.error.id, "void");
  EXPECT_TRUE(client.ping());  // per-request error, connection usable
  EXPECT_EQ(service->stats().invalid, 1u);
  EXPECT_EQ(service->queue_depth(), 0u);  // never touched the queue
}

TEST_F(NetAdmission, ConnectionCapAnswersTypedRefusal) {
  auto service = make_paused_service(16);
  ServerConfig cfg;
  cfg.max_connections = 1;
  net::Server server(cfg, *service);

  Client first(server.port());
  ASSERT_TRUE(first.ping());  // guarantees the accept is registered

  Client second(server.port());
  Reply reply;
  ASSERT_TRUE(second.read_reply(reply));
  ASSERT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.error.code, ErrorCode::kTooManyConnections);
  EXPECT_FALSE(second.read_reply(reply));  // refused connections close

  EXPECT_TRUE(first.ping());  // the admitted connection is unaffected
  EXPECT_EQ(server.stats().refused_connections, 1u);
}

TEST_F(NetAdmission, GracefulShutdownDrainsInflightAndRefusesNew) {
  auto service = make_paused_service(16);
  net::Server server(ServerConfig{}, *service);
  const std::uint16_t port = server.port();

  Client client(port);
  ASSERT_TRUE(client.send_frame(net::encode_query(make_query("draining"))));
  // Let the request reach the service before shutting down.
  while (service->queue_depth() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service->resume();  // in-flight work completes during the drain
  server.shutdown();

  // The in-flight response was flushed before connections closed.
  Reply reply;
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_TRUE(reply.ok());
  EXPECT_EQ(reply.result.id, "draining");

  // New connections are refused outright: the listener is gone.
  EXPECT_THROW(Client{port}, std::runtime_error);
}

TEST_F(NetAdmission, ShutdownWithStuckRequestTimesOutInsteadOfHanging) {
  auto service = make_paused_service(16);
  ServerConfig cfg;
  cfg.drain_timeout_seconds = 0.2;  // the request will never complete
  net::Server server(cfg, *service);

  Client client(server.port());
  ASSERT_TRUE(client.send_frame(net::encode_query(make_query("stuck"))));
  while (service->queue_depth() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto t0 = std::chrono::steady_clock::now();
  server.shutdown();  // paused service: drain must give up, not hang
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(waited, 5.0);

  // The late completion after the server is gone must be dropped safely.
  service->resume();
  service->shutdown();
}

}  // namespace
}  // namespace gm

// Tests for the nec::net subsystem (DESIGN.md §5h): frame codec
// round-trips and typed decode errors, seeded corruption fuzz that must
// never over-read, EINTR-safe socket I/O, the v2 auth handshake
// (challenge–response, replay defense, strict payload parses), and the
// load-bearing end-to-end properties — a networked necd serving shadows
// bit-identical to the in-process SessionManager, a 2-shard router
// fleet doing the same for a pool of concurrent sessions, a killed
// shard faulting only its own sessions, a saturated shard shedding new
// work with typed kOverload, and a draining reshard migrating every
// sticky session with zero faults and bit-identical continuation.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/selector.h"
#include "encoder/encoder.h"
#include "net/auth.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/loadgen.h"
#include "net/router.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/http.h"
#include "obs/trace.h"
#include "runtime/fault.h"
#include "runtime/session_manager.h"
#include "synth/dataset.h"

namespace nec::net {
namespace {

// ------------------------------------------------------------ frame codec

TEST(Crc32, KnownAnswers) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const std::uint8_t*>(check), 9),
            0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

// The textbook byte-at-a-time table loop: the reference the sliced
// implementation must reproduce.
std::uint32_t BytewiseCrc32(const std::uint8_t* data, std::size_t size) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0-80 cover the empty input, the pure tail loop (< 8 bytes) and
  // every tail length after whole 8-byte steps; offsets 0-7 start the
  // sliced loads at every alignment.
  Rng rng(4242);
  std::vector<std::uint8_t> buf(96);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 80; ++len) {
      ASSERT_EQ(Crc32(buf.data() + offset, len),
                BytewiseCrc32(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

Frame MakeFrame(FrameType type, std::uint64_t sid,
                std::vector<std::uint8_t> payload) {
  Frame f;
  f.type = type;
  f.session_id = sid;
  f.payload = std::move(payload);
  return f;
}

std::vector<Frame> RepresentativeFrames() {
  std::vector<Frame> frames;
  {
    std::vector<std::uint8_t> p;
    PutU32(&p, 1);
    PutU32(&p, 1);
    frames.push_back(MakeFrame(FrameType::kHello, 0, std::move(p)));
  }
  {
    std::vector<std::uint8_t> p;
    for (std::uint32_t v : {1u, 16000u, 16000u, 192000u, 192000u}) {
      PutU32(&p, v);
    }
    frames.push_back(MakeFrame(FrameType::kHelloAck, 0, std::move(p)));
  }
  {
    std::vector<std::uint8_t> p;
    PutU64(&p, 42);
    PutU64(&p, 43);
    frames.push_back(
        MakeFrame(FrameType::kOpenSession, 7, std::move(p)));
  }
  frames.push_back(MakeFrame(FrameType::kOpenAck, 7, {}));
  {
    std::vector<std::uint8_t> p;
    const float samples[] = {0.0f, 0.5f, -0.25f, 1.0f, -1.0f};
    PutFloats(&p, samples);
    frames.push_back(MakeFrame(FrameType::kSubmitChunk, 7, std::move(p)));
  }
  {
    std::vector<std::uint8_t> p;
    const float samples[] = {1e-7f, -3.25f};
    PutFloats(&p, samples);
    frames.push_back(MakeFrame(FrameType::kShadowData, 7, std::move(p)));
  }
  frames.push_back(MakeFrame(FrameType::kCloseSession, 7, {}));
  frames.push_back(MakeFrame(FrameType::kClosed, 7, {}));
  {
    std::vector<std::uint8_t> p;
    PutU32(&p, 1);
    const char* msg = "invariant broken";
    p.insert(p.end(), msg, msg + std::strlen(msg));
    frames.push_back(MakeFrame(FrameType::kError, 7, std::move(p)));
  }
  frames.push_back(MakeFrame(FrameType::kPing, 0, {0xde, 0xad}));
  frames.push_back(MakeFrame(FrameType::kPong, 0, {0xde, 0xad}));
  // v2: auth handshake, load reporting, draining reshard.
  {
    std::vector<std::uint8_t> p;
    PutU64(&p, 0x1122334455667788ull);
    frames.push_back(MakeFrame(FrameType::kAuthChallenge, 0, std::move(p)));
  }
  {
    std::vector<std::uint8_t> p;
    PutU64(&p, AuthTag("fleet-secret", 0x1122334455667788ull));
    frames.push_back(MakeFrame(FrameType::kAuthResponse, 17, std::move(p)));
  }
  {
    std::vector<std::uint8_t> p;
    PutU32(&p, 4);
    const char* msg = "auth tag mismatch";
    p.insert(p.end(), msg, msg + std::strlen(msg));
    frames.push_back(MakeFrame(FrameType::kAuthReject, 0, std::move(p)));
  }
  frames.push_back(MakeFrame(FrameType::kStatusRequest, 0, {}));
  {
    std::vector<std::uint8_t> p;
    PutShardStatus(&p, {.queue_depth = 3,
                        .active_sessions = 9,
                        .e2e_p99_ms = 41.5f,
                        .overload_total = 2});
    frames.push_back(MakeFrame(FrameType::kShardStatus, 0, std::move(p)));
  }
  frames.push_back(MakeFrame(FrameType::kDrainSession, 7, {}));
  {
    SessionSnapshotPayload snap;
    snap.speaker_seed = 42;
    snap.ref_seed = 43;
    snap.chunks_done = 1;
    snap.latch_bits = 0x3FF0000000000000ull;
    snap.tail = {0.5f, -0.25f};
    std::vector<std::uint8_t> p;
    PutSessionSnapshot(&p, snap);
    frames.push_back(MakeFrame(FrameType::kSessionSnapshot, 7, p));
    frames.push_back(MakeFrame(FrameType::kRestoreSession, 7, std::move(p)));
  }
  return frames;
}

TEST(FrameCodec, RoundTripsEveryFrameType) {
  for (const Frame& original : RepresentativeFrames()) {
    std::string wire;
    EncodeFrame(original, &wire);
    ASSERT_GE(wire.size(), kHeaderSize);

    FrameDecoder decoder;
    decoder.Feed(reinterpret_cast<const std::uint8_t*>(wire.data()),
                 wire.size());
    Frame decoded;
    ASSERT_EQ(decoder.Next(&decoded), DecodeStatus::kOk)
        << FrameTypeName(original.type);
    EXPECT_EQ(decoded.type, original.type);
    EXPECT_EQ(decoded.session_id, original.session_id);
    EXPECT_EQ(decoded.payload, original.payload);
    EXPECT_EQ(decoder.Next(&decoded), DecodeStatus::kNeedMore);
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(FrameCodec, DecodesByteAtATimeAcrossMultipleFrames) {
  const std::vector<Frame> originals = RepresentativeFrames();
  std::string wire;
  for (const Frame& f : originals) EncodeFrame(f, &wire);

  FrameDecoder decoder;
  std::vector<Frame> decoded;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    const auto byte = static_cast<std::uint8_t>(wire[i]);
    decoder.Feed(&byte, 1);
    Frame f;
    DecodeStatus status;
    while ((status = decoder.Next(&f)) == DecodeStatus::kOk) {
      decoded.push_back(f);
    }
    ASSERT_EQ(status, DecodeStatus::kNeedMore);
  }
  ASSERT_EQ(decoded.size(), originals.size());
  for (std::size_t i = 0; i < originals.size(); ++i) {
    EXPECT_EQ(decoded[i].type, originals[i].type);
    EXPECT_EQ(decoded[i].session_id, originals[i].session_id);
    EXPECT_EQ(decoded[i].payload, originals[i].payload);
  }
}

std::string EncodeOne(FrameType type = FrameType::kPing) {
  std::string wire;
  EncodeFrame(MakeFrame(type, 9, {1, 2, 3, 4}), &wire);
  return wire;
}

DecodeStatus DecodeAll(const std::string& wire) {
  FrameDecoder decoder;
  decoder.Feed(reinterpret_cast<const std::uint8_t*>(wire.data()),
               wire.size());
  Frame f;
  DecodeStatus status;
  while ((status = decoder.Next(&f)) == DecodeStatus::kOk) {
  }
  return status;
}

TEST(FrameCodec, ReportsTypedHeaderErrors) {
  {
    std::string wire = EncodeOne();
    wire[0] = 'X';
    EXPECT_EQ(DecodeAll(wire), DecodeStatus::kBadMagic);
  }
  {
    std::string wire = EncodeOne();
    wire[4] = static_cast<char>(kProtocolVersion + 1);
    EXPECT_EQ(DecodeAll(wire), DecodeStatus::kBadVersion);
  }
  {
    std::string wire = EncodeOne();
    wire[5] = static_cast<char>(0xEE);
    EXPECT_EQ(DecodeAll(wire), DecodeStatus::kBadType);
  }
  {
    std::string wire = EncodeOne();
    wire[6] = 1;  // reserved must be zero
    EXPECT_EQ(DecodeAll(wire), DecodeStatus::kBadReserved);
  }
  {
    std::string wire = EncodeOne();
    wire[19] = static_cast<char>(0xFF);  // length beyond kMaxPayloadBytes
    EXPECT_EQ(DecodeAll(wire), DecodeStatus::kBadLength);
  }
  {
    std::string wire = EncodeOne();
    wire[kHeaderSize] ^= 0x01;  // payload no longer matches the CRC
    EXPECT_EQ(DecodeAll(wire), DecodeStatus::kBadCrc);
  }
}

TEST(FrameCodec, FirstErrorIsStickyAndConsumesNothingFurther) {
  std::string bad = EncodeOne();
  bad[0] = 'X';
  FrameDecoder decoder;
  decoder.Feed(reinterpret_cast<const std::uint8_t*>(bad.data()), bad.size());
  Frame f;
  ASSERT_EQ(decoder.Next(&f), DecodeStatus::kBadMagic);
  EXPECT_TRUE(decoder.failed());

  // A perfectly valid frame fed afterwards must not resurrect the stream.
  const std::string good = EncodeOne();
  decoder.Feed(reinterpret_cast<const std::uint8_t*>(good.data()),
               good.size());
  EXPECT_EQ(decoder.Next(&f), DecodeStatus::kBadMagic);

  decoder.Reset();
  decoder.Feed(reinterpret_cast<const std::uint8_t*>(good.data()),
               good.size());
  EXPECT_EQ(decoder.Next(&f), DecodeStatus::kOk);
}

TEST(FrameCodec, TruncationOnlyEverNeedsMore) {
  const std::string wire = EncodeOne(FrameType::kSubmitChunk);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    FrameDecoder decoder;
    decoder.Feed(reinterpret_cast<const std::uint8_t*>(wire.data()), len);
    Frame f;
    EXPECT_EQ(decoder.Next(&f), DecodeStatus::kNeedMore) << "prefix " << len;
    EXPECT_EQ(decoder.buffered(), len);  // nothing consumed, nothing invented
  }
}

TEST(FrameCodec, FuzzRandomBytesNeverCrashOrOverRead) {
  std::mt19937_64 rng(20260809);
  for (int iteration = 0; iteration < 300; ++iteration) {
    const std::size_t size = rng() % 512;
    std::vector<std::uint8_t> blob(size);
    for (auto& b : blob) b = static_cast<std::uint8_t>(rng());
    FrameDecoder decoder;
    decoder.Feed(blob.data(), blob.size());
    Frame f;
    DecodeStatus status;
    std::size_t decoded = 0;
    while ((status = decoder.Next(&f)) == DecodeStatus::kOk) {
      ASSERT_LE(f.payload.size(), blob.size());
      ++decoded;
    }
    // Random bytes essentially never hit the magic; either way the
    // decoder must land in a terminal typed state without reading past
    // what was fed.
    EXPECT_TRUE(status == DecodeStatus::kNeedMore || IsDecodeError(status));
    EXPECT_LE(decoded, blob.size() / kHeaderSize + 1);
  }
}

TEST(FrameCodec, FuzzSingleByteCorruptionPastHeaderNeverDecodes) {
  std::mt19937_64 rng(7);
  std::vector<std::uint8_t> payload(64);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
  std::string wire;
  EncodeFrame(MakeFrame(FrameType::kShadowData, 5, payload), &wire);

  // Corrupt one byte anywhere in the length/CRC/payload region: the
  // decoder must report a typed error or keep waiting — never hand the
  // altered frame to the caller as kOk.
  for (int iteration = 0; iteration < 300; ++iteration) {
    std::string corrupt = wire;
    const std::size_t at = 16 + rng() % (corrupt.size() - 16);
    corrupt[at] = static_cast<char>(corrupt[at] ^ (1u << (rng() % 8)));
    FrameDecoder decoder;
    decoder.Feed(reinterpret_cast<const std::uint8_t*>(corrupt.data()),
                 corrupt.size());
    Frame f;
    const DecodeStatus status = decoder.Next(&f);
    EXPECT_NE(status, DecodeStatus::kOk) << "flip at " << at;
    EXPECT_TRUE(status == DecodeStatus::kNeedMore || IsDecodeError(status));
  }
}

TEST(PayloadReader, PoisonsOnTruncation) {
  std::vector<std::uint8_t> payload;
  PutU32(&payload, 77);
  {
    PayloadReader reader(payload);
    std::uint64_t v = 0;
    EXPECT_FALSE(reader.U64(&v));  // only 4 bytes buffered
    EXPECT_FALSE(reader.ok());
  }
  {
    std::vector<std::uint8_t> odd = {1, 2, 3};  // not a multiple of 4
    PayloadReader reader(odd);
    std::vector<float> floats;
    EXPECT_FALSE(reader.Floats(&floats));
    EXPECT_FALSE(reader.ok());
  }
  {
    PayloadReader reader(payload);
    std::uint32_t v = 0;
    EXPECT_TRUE(reader.U32(&v));
    EXPECT_EQ(v, 77u);
    EXPECT_TRUE(reader.complete());
  }
}

TEST(PayloadReader, ShardStatusRoundTripIsStrict) {
  const ShardStatusPayload original = {.queue_depth = 12,
                                       .active_sessions = 3,
                                       .e2e_p99_ms = 87.25f,
                                       .overload_total = 41};
  std::vector<std::uint8_t> payload;
  PutShardStatus(&payload, original);

  ShardStatusPayload decoded;
  ASSERT_TRUE(ParseShardStatus(payload, &decoded));
  EXPECT_EQ(decoded.queue_depth, original.queue_depth);
  EXPECT_EQ(decoded.active_sessions, original.active_sessions);
  EXPECT_EQ(decoded.e2e_p99_ms, original.e2e_p99_ms);
  EXPECT_EQ(decoded.overload_total, original.overload_total);

  // Every strict prefix is truncated; a trailing byte is a schema lie.
  for (std::size_t len = 0; len < payload.size(); ++len) {
    ShardStatusPayload scratch;
    EXPECT_FALSE(ParseShardStatus(
        std::span<const std::uint8_t>(payload.data(), len), &scratch))
        << "prefix " << len;
  }
  std::vector<std::uint8_t> padded = payload;
  padded.push_back(0);
  ShardStatusPayload scratch;
  EXPECT_FALSE(ParseShardStatus(padded, &scratch));
}

TEST(PayloadReader, SessionSnapshotRoundTripIsStrict) {
  SessionSnapshotPayload original;
  original.speaker_seed = 0xA1B2C3D4E5F60718ull;
  original.ref_seed = 99;
  original.chunks_done = 7;
  original.latch_bits = 0x3FE5555555555555ull;
  original.tail = {0.125f, -0.5f, 1e-6f};
  std::vector<std::uint8_t> payload;
  PutSessionSnapshot(&payload, original);

  SessionSnapshotPayload decoded;
  ASSERT_TRUE(ParseSessionSnapshot(payload, &decoded));
  EXPECT_EQ(decoded.speaker_seed, original.speaker_seed);
  EXPECT_EQ(decoded.ref_seed, original.ref_seed);
  EXPECT_EQ(decoded.chunks_done, original.chunks_done);
  EXPECT_EQ(decoded.latch_bits, original.latch_bits);
  EXPECT_EQ(decoded.tail, original.tail);

  // The tail consumes everything after the fixed header, so the only
  // valid lengths are header + 4k; anything else must parse false. (A
  // 4-aligned truncation IS a shorter valid snapshot — the frame CRC is
  // what rules that out on the wire, not the schema.)
  const std::size_t fixed = payload.size() - 4 * original.tail.size();
  for (std::size_t len = 0; len < payload.size(); ++len) {
    if (len >= fixed && (len - fixed) % 4 == 0) continue;
    SessionSnapshotPayload scratch;
    EXPECT_FALSE(ParseSessionSnapshot(
        std::span<const std::uint8_t>(payload.data(), len), &scratch))
        << "prefix " << len;
  }
}

TEST(PayloadReader, FuzzV2ParsersNeverCrashOrOverRead) {
  std::mt19937_64 rng(20260809);
  for (int iteration = 0; iteration < 300; ++iteration) {
    const std::size_t size = rng() % 96;
    std::vector<std::uint8_t> blob(size);
    for (auto& b : blob) b = static_cast<std::uint8_t>(rng());
    ShardStatusPayload status;
    ParseShardStatus(blob, &status);  // must not crash / over-read
    // Five u32s exactly, and every such blob round-trips byte for byte.
    HelloInfo hello;
    ASSERT_EQ(ParseHelloAck(blob, &hello), blob.size() == 20);
    if (blob.size() == 20) {
      std::vector<std::uint8_t> again;
      PutHelloAck(&again, hello);
      EXPECT_EQ(again, blob);
    }
    SessionSnapshotPayload snapshot;
    if (ParseSessionSnapshot(blob, &snapshot)) {
      // Anything it accepted must have fit inside the blob.
      EXPECT_LE(4 * snapshot.tail.size(), blob.size());
    }
  }
}

// --------------------------------------------------------------- auth

TEST(Auth, SipHash24MatchesReferenceVectors) {
  // Canonical SipHash-2-4 vectors (Aumasson & Bernstein reference
  // implementation): key 0x0f0e...0100, input bytes 0,1,...,n-1.
  std::uint8_t in[16];
  for (int i = 0; i < 16; ++i) in[i] = static_cast<std::uint8_t>(i);
  const std::uint64_t k0 = 0x0706050403020100ull;
  const std::uint64_t k1 = 0x0f0e0d0c0b0a0908ull;
  EXPECT_EQ(SipHash24(k0, k1, in, 0), 0x726fdb47dd0e0e31ull);
  EXPECT_EQ(SipHash24(k0, k1, in, 1), 0x74f839c593dc67fdull);
  EXPECT_EQ(SipHash24(k0, k1, in, 7), 0xab0200f58b01d137ull);
  EXPECT_EQ(SipHash24(k0, k1, in, 8), 0x93f5f5799a932462ull);
  EXPECT_EQ(SipHash24(k0, k1, in, 15), 0xa129ca6149be45e5ull);
}

TEST(Auth, TagBindsSecretAndNonce) {
  const std::uint64_t tag = AuthTag("fleet-secret", 7);
  EXPECT_EQ(AuthTag("fleet-secret", 7), tag);  // deterministic
  EXPECT_NE(AuthTag("other-secret", 7), tag);
  EXPECT_NE(AuthTag("fleet-secret", 8), tag);
  EXPECT_NE(AuthTag("", 7), tag);
}

TEST(Auth, RandomNoncesAreDistinct) {
  std::unordered_set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(RandomNonce());
  EXPECT_EQ(seen.size(), 1000u);
}

// ------------------------------------------------------------- socket I/O

TEST(SocketIo, ReadFullWriteFullMoveExactBuffers) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::vector<std::uint8_t> sent(1 << 20);
  std::mt19937_64 rng(3);
  for (auto& b : sent) b = static_cast<std::uint8_t>(rng());

  std::thread writer([&] {
    EXPECT_EQ(WriteFull(fds[0], sent.data(), sent.size(), 5000),
              IoStatus::kOk);
  });
  std::vector<std::uint8_t> got(sent.size());
  EXPECT_EQ(ReadFull(fds[1], got.data(), got.size(), 5000), IoStatus::kOk);
  writer.join();
  EXPECT_EQ(got, sent);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(SocketIo, ReadFullTimesOutOnSilentPeer) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::uint8_t byte = 0;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(ReadFull(fds[1], &byte, 1, 100), IoStatus::kTimeout);
  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(waited_ms, 90.0);
  EXPECT_LT(waited_ms, 2000.0);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(SocketIo, WriteToClosedPeerReportsClosedNotSigpipe) {
  IgnoreSigpipe();
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  std::vector<std::uint8_t> big(1 << 20, 0xAB);
  // If SIGPIPE were not ignored this write would kill the process.
  EXPECT_EQ(WriteFull(fds[0], big.data(), big.size(), 1000),
            IoStatus::kClosed);
  ::close(fds[0]);
}

TEST(SocketIo, ParseHostPortAcceptsOnlyWellFormedSpecs) {
  std::string host;
  int port = 0;
  EXPECT_TRUE(ParseHostPort("127.0.0.1:9465", &host, &port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 9465);
  EXPECT_FALSE(ParseHostPort("127.0.0.1", &host, &port));
  EXPECT_FALSE(ParseHostPort(":9465", &host, &port));
  EXPECT_FALSE(ParseHostPort("host:", &host, &port));
  EXPECT_FALSE(ParseHostPort("host:notaport", &host, &port));
}

TEST(SocketIo, DialDistinguishesRefusedFromTimeout) {
  // Grab a port that is guaranteed closed: bind, read the number, close.
  int port = 0;
  {
    TcpListener listener;
    std::string error;
    ASSERT_TRUE(listener.Listen("127.0.0.1", 0, &error)) << error;
    port = listener.port();
  }
  std::string error;
  EXPECT_LT(DialTcp("127.0.0.1", port, 1000, &error), 0);
  EXPECT_NE(error.find("refused"), std::string::npos) << error;
}

// --------------------------------------------------------------- fixtures

core::NecConfig SmallConfig() {
  core::NecConfig cfg = core::NecConfig::Fast();
  cfg.conv_channels = 6;
  cfg.fc_hidden = 32;
  return cfg;
}

/// Weights shared by every manager in a test — the cross-process
/// equivalent is every shard loading the same --model tiny.
struct SharedModel {
  SharedModel()
      : cfg(SmallConfig()),
        selector(std::make_shared<const core::Selector>(cfg, 7)),
        encoder(std::make_shared<encoder::LasEncoder>(cfg.embedding_dim)) {}

  runtime::SessionManager::Options ManagerOptions() const {
    return {.workers = 4, .chunk_s = 1.0};
  }

  core::NecConfig cfg;
  std::shared_ptr<const core::Selector> selector;
  std::shared_ptr<const encoder::SpeakerEncoder> encoder;
};

/// What a correct server must produce for (speaker_seed, ref_seed,
/// chunks): the in-process SessionManager result with seed enrollment.
std::vector<float> ExpectedShadow(const SharedModel& model,
                                  std::uint64_t speaker_seed,
                                  std::uint64_t ref_seed,
                                  const std::vector<float>& stream,
                                  std::size_t chunk_samples,
                                  std::size_t chunks) {
  runtime::SessionManager manager(model.selector, model.encoder, {},
                                  model.ManagerOptions());
  synth::DatasetBuilder enroll_builder({.duration_s = 3.0});
  const auto refs = enroll_builder.MakeReferenceAudios(
      synth::SpeakerProfile::FromSeed(speaker_seed), 3, ref_seed);
  const auto id = manager.CreateSession(refs);
  for (std::size_t c = 0; c < chunks; ++c) {
    std::span<const float> chunk(stream.data() + c * chunk_samples,
                                 chunk_samples);
    for (;;) {
      const runtime::SubmitResult r = manager.Submit(id, chunk);
      if (r.ok() ||
          r.error->category != runtime::ErrorCategory::kOverload) {
        break;
      }
      chunk = {};  // buffered; nudge until admitted
      std::this_thread::yield();
    }
  }
  manager.Drain();
  audio::Waveform out = manager.TakeOutput(id);
  if (auto tail = manager.Flush(id)) out.Append(*tail);
  return std::vector<float>(out.samples().begin(), out.samples().end());
}

std::vector<float> MakeStream(std::uint64_t speaker_seed,
                              std::uint64_t content_seed, double seconds) {
  synth::DatasetBuilder builder({.duration_s = seconds});
  auto instance =
      builder.MakeInstance(synth::SpeakerProfile::FromSeed(speaker_seed),
                           synth::Scenario::kBabble, content_seed);
  return std::move(instance.mixed.data());
}

// ----------------------------------------------------- server end-to-end

/// Every loadgen session's shadow equals the in-process result for its
/// (speaker_seed, ref_seed, stream) tuple. One expected shadow per pool
/// index. Needs options.keep_shadows.
void ExpectShadowsMatchInProcess(const SharedModel& model,
                                 const LoadGenOptions& options,
                                 const LoadGenReport& report) {
  const std::size_t chunk_samples = report.chunk_samples;
  std::vector<std::vector<float>> expected(options.stream_pool);
  for (const auto& outcome : report.sessions) {
    ASSERT_TRUE(outcome.completed) << outcome.error;
    auto& want = expected[outcome.stream_index];
    if (want.empty()) {
      std::vector<float> stream =
          MakeStream(outcome.speaker_seed, options.seed + 7919 * (outcome.stream_index + 1),
                     static_cast<double>(options.chunks_per_session *
                                         chunk_samples) /
                         16000.0);
      stream.resize(options.chunks_per_session * chunk_samples, 0.0f);
      want = ExpectedShadow(model, outcome.speaker_seed, outcome.ref_seed,
                            stream, chunk_samples,
                            options.chunks_per_session);
    }
    ASSERT_EQ(outcome.shadow.size(), want.size())
        << "session " << outcome.wire_sid;
    ASSERT_EQ(std::memcmp(outcome.shadow.data(), want.data(),
                          want.size() * sizeof(float)),
              0)
        << "session " << outcome.wire_sid << " diverged";
  }
}

TEST(NetServerE2E, ServesBitIdenticalShadowsToInProcessManager) {
  SharedModel model;
  runtime::SessionManager manager(model.selector, model.encoder, {},
                                  model.ManagerOptions());
  NetServer server(&manager, {});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const std::size_t chunk_samples = manager.chunk_samples();
  const std::size_t chunks = 2;
  std::vector<float> stream = MakeStream(42, 99, 2.0);
  stream.resize(chunks * chunk_samples, 0.0f);

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), 2000, &error))
      << error;
  HelloInfo hello;
  ASSERT_TRUE(client.Hello(&hello, 5000, &error)) << error;
  EXPECT_EQ(hello.version, kProtocolVersion);
  EXPECT_EQ(hello.chunk_samples, chunk_samples);
  EXPECT_EQ(hello.input_sample_rate, 16000u);
  EXPECT_EQ(hello.output_sample_rate, 192000u);

  ASSERT_TRUE(client.OpenSession(1, 42, 43, 10000, &error)) << error;
  for (std::size_t c = 0; c < chunks; ++c) {
    ASSERT_TRUE(client.SubmitChunk(
        1, std::span<const float>(stream.data() + c * chunk_samples,
                                  chunk_samples),
        &error))
        << error;
  }
  ASSERT_TRUE(client.SendCloseSession(1, &error)) << error;
  ASSERT_TRUE(client.WaitDone(1, 60000, &error)) << error;

  const WireSessionState& state = client.session(1);
  ASSERT_TRUE(state.closed);
  ASSERT_FALSE(state.error.has_value());

  const std::vector<float> expected =
      ExpectedShadow(model, 42, 43, stream, chunk_samples, chunks);
  ASSERT_EQ(state.shadow.size(), expected.size());
  // Bit-exact: memcmp, not tolerance — networked serving must not change
  // a single sample.
  EXPECT_EQ(std::memcmp(state.shadow.data(), expected.data(),
                        expected.size() * sizeof(float)),
            0);

  const NetStatsSnapshot stats = server.StatsSnapshot();
  EXPECT_EQ(stats.sessions_opened, 1u);
  EXPECT_EQ(stats.sessions_closed, 1u);
  EXPECT_EQ(stats.decode_errors, 0u);
  EXPECT_GT(stats.bytes_out, 0u);
  server.Stop();
}

TEST(NetServerE2E, ShadowIsSentWhenItCompletesNotOnTheNextTick) {
  // A tick far longer than the test's budget: only the manager's output
  // listener can wake the poll loop between the submit and the shadow.
  SharedModel model;
  runtime::SessionManager manager(model.selector, model.encoder, {},
                                  model.ManagerOptions());
  NetServer::Options options;
  options.tick_ms = 600000;
  NetServer server(&manager, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const std::size_t chunk_samples = manager.chunk_samples();
  std::vector<float> stream = MakeStream(42, 99, 1.0);
  stream.resize(chunk_samples, 0.0f);

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), 2000, &error))
      << error;
  HelloInfo hello;
  ASSERT_TRUE(client.Hello(&hello, 5000, &error)) << error;
  ASSERT_TRUE(client.OpenSession(1, 42, 43, 10000, &error)) << error;
  ASSERT_TRUE(client.SubmitChunk(1, stream, &error)) << error;

  const std::size_t shadow_samples = chunk_samples *
                                     hello.output_sample_rate /
                                     hello.input_sample_rate;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (client.session(1).shadow.size() < shadow_samples &&
         std::chrono::steady_clock::now() < give_up) {
    bool timed_out = false;
    ASSERT_TRUE(client.PumpOnce(100, &timed_out, &error)) << error;
  }
  const std::vector<float> expected =
      ExpectedShadow(model, 42, 43, stream, chunk_samples, 1);
  ASSERT_EQ(client.session(1).shadow.size(), shadow_samples);
  EXPECT_EQ(std::memcmp(client.session(1).shadow.data(), expected.data(),
                        shadow_samples * sizeof(float)),
            0);

  // Close is handled on the frame's arrival; Stop wakes the loop itself.
  ASSERT_TRUE(client.SendCloseSession(1, &error)) << error;
  ASSERT_TRUE(client.WaitDone(1, 60000, &error)) << error;
  server.Stop();
}

TEST(NetServerE2E, ServesLoadGenSessionsBitIdenticalOverSeveralConnections) {
  // One shard, no router: many sessions multiplexed over several
  // connections must each reproduce the in-process shadow.
  SharedModel model;
  runtime::SessionManager manager(model.selector, model.encoder, {},
                                  model.ManagerOptions());
  NetServer server(&manager, {});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  LoadGenOptions options;
  options.endpoints = {"127.0.0.1:" + std::to_string(server.port())};
  options.sessions = 8;
  options.connections = 4;
  options.chunks_per_session = 2;
  options.stream_pool = 4;
  options.seed = 11;
  options.keep_shadows = true;
  options.max_seconds = 300.0;
  const LoadGenReport report = RunLoadGen(options);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.sessions_completed, options.sessions);
  EXPECT_EQ(report.sessions_faulted, 0u);
  EXPECT_EQ(report.chunks_acked, 2u * options.sessions);
  ExpectShadowsMatchInProcess(model, options, report);
  server.Stop();
}

// ------------------------------------------------------ router fleet

/// Knobs a fleet test can turn on: shared-secret auth on every hop,
/// router admission control (saturate_queue_depth > 0 enables it), and
/// the shard count.
struct FleetOptions {
  std::string secret;
  std::uint64_t saturate_queue_depth = 0;
  std::uint64_t recover_queue_depth = 0;
  std::size_t recover_statuses = 2;
  int shards = 2;
};

/// A fleet on loopback (2 shards by default): SessionManagers sharing one
/// weight set (the in-test stand-in for processes loading the same
/// model), each behind a NetServer and a /healthz endpoint, fronted by a
/// Router.
struct Fleet {
  explicit Fleet(const SharedModel& model,
                 const FleetOptions& fleet_options = {}) {
    for (int s = 0; s < fleet_options.shards; ++s) {
      managers.push_back(std::make_unique<runtime::SessionManager>(
          model.selector, model.encoder, core::PipelineOptions{},
          model.ManagerOptions()));
      servers.push_back(std::make_unique<NetServer>(
          managers.back().get(),
          NetServer::Options{.secret = fleet_options.secret}));
      std::string error;
      EXPECT_TRUE(servers.back()->Start(&error)) << error;

      health.push_back(std::make_unique<obs::MetricsServer>());
      health.back()->Handle("/healthz",
                            [](const std::string&, const std::string&) {
                              obs::HttpResponse resp;
                              resp.body = "{\"status\":\"ok\"}\n";
                              return resp;
                            });
      EXPECT_TRUE(health.back()->Start({.host = "127.0.0.1", .port = 0},
                                       &error))
          << error;
    }
    Router::Options options;
    options.probe_interval_ms = 100;
    options.secret = fleet_options.secret;
    if (fleet_options.saturate_queue_depth > 0) {
      options.saturate_queue_depth = fleet_options.saturate_queue_depth;
      options.recover_queue_depth = fleet_options.recover_queue_depth;
      options.recover_statuses = fleet_options.recover_statuses;
    }
    for (int s = 0; s < fleet_options.shards; ++s) {
      options.shards.push_back({.host = "127.0.0.1",
                                .port = servers[s]->port(),
                                .health_port = health[s]->port()});
    }
    router = std::make_unique<Router>(std::move(options));
    std::string error;
    EXPECT_TRUE(router->Start(&error)) << error;
  }

  /// The "host:port" label DrainShard and the metrics families use.
  std::string ShardLabel(std::size_t s) const {
    return "127.0.0.1:" + std::to_string(servers[s]->port());
  }

  ~Fleet() {
    router->Stop();
    for (auto& server : servers) server->Stop();
    for (auto& h : health) h->Stop();
  }

  std::vector<std::unique_ptr<runtime::SessionManager>> managers;
  std::vector<std::unique_ptr<NetServer>> servers;
  std::vector<std::unique_ptr<obs::MetricsServer>> health;
  std::unique_ptr<Router> router;
};

// ------------------------------------------------------ both server faces

/// The two faces that accept wire connections and run the server half of
/// the handshake.
enum class Face { kShard, kRouter };

/// A face under test, by parameter: a shard, or a router in front of one
/// shard. Every hop requires the secret "fleet-secret"; a hello and a
/// stream that stops framing are answered before auth.
class FaceTest : public testing::TestWithParam<Face> {
 protected:
  void SetUp() override {
    if (GetParam() == Face::kRouter) {
      fleet_ = std::make_unique<Fleet>(
          model_, FleetOptions{.secret = "fleet-secret", .shards = 1});
      return;
    }
    manager_ = std::make_unique<runtime::SessionManager>(
        model_.selector, model_.encoder, core::PipelineOptions{},
        model_.ManagerOptions());
    shard_ = std::make_unique<NetServer>(
        manager_.get(), NetServer::Options{.secret = "fleet-secret"});
    std::string error;
    ASSERT_TRUE(shard_->Start(&error)) << error;
  }

  int port() const {
    return fleet_ != nullptr ? fleet_->router->port() : shard_->port();
  }
  NetStatsSnapshot stats() const {
    return fleet_ != nullptr ? fleet_->router->StatsSnapshot()
                             : shard_->StatsSnapshot();
  }

 private:
  SharedModel model_;
  std::unique_ptr<runtime::SessionManager> manager_;
  std::unique_ptr<NetServer> shard_;
  std::unique_ptr<Fleet> fleet_;
};

std::string FaceName(const testing::TestParamInfo<Face>& info) {
  return info.param == Face::kShard ? "Shard" : "Router";
}

using NetServerFaceE2E = FaceTest;
using NetAuthFaceE2E = FaceTest;
INSTANTIATE_TEST_SUITE_P(Faces, NetServerFaceE2E,
                         testing::Values(Face::kShard, Face::kRouter),
                         FaceName);
INSTANTIATE_TEST_SUITE_P(Faces, NetAuthFaceE2E,
                         testing::Values(Face::kShard, Face::kRouter),
                         FaceName);

TEST_P(NetServerFaceE2E, RejectsUnsupportedProtocolVersion) {
  std::string error;
  const int fd = DialTcp("127.0.0.1", port(), 2000, &error);
  ASSERT_GE(fd, 0) << error;
  Frame hello;
  hello.type = FrameType::kHello;
  PutU32(&hello.payload, 99);
  PutU32(&hello.payload, 99);
  std::string wire;
  EncodeFrame(hello, &wire);
  ASSERT_EQ(WriteFull(fd, wire.data(), wire.size(), 2000), IoStatus::kOk);

  FrameDecoder decoder;
  Frame reply;
  DecodeStatus status = DecodeStatus::kNeedMore;
  std::uint8_t buf[512];
  for (int i = 0; i < 100 && status == DecodeStatus::kNeedMore; ++i) {
    std::size_t n = 0;
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r > 0) n = static_cast<std::size_t>(r);
    if (r == 0) break;
    decoder.Feed(buf, n);
    status = decoder.Next(&reply);
  }
  ASSERT_EQ(status, DecodeStatus::kOk);
  EXPECT_EQ(reply.type, FrameType::kError);
  PayloadReader reader(reply.payload);
  std::uint32_t category = 0;
  ASSERT_TRUE(reader.U32(&category));
  EXPECT_EQ(category,
            static_cast<std::uint32_t>(runtime::ErrorCategory::kBadInput));
  EXPECT_NE(reader.RemainingText().find("unsupported protocol version"),
            std::string::npos);
  // No version in common: the connection is closed behind the kError.
  std::uint8_t byte = 0;
  EXPECT_EQ(ReadFull(fd, &byte, 1, 5000), IoStatus::kClosed);
  ::close(fd);
}

TEST_P(NetServerFaceE2E, MalformedBytesGetTypedErrorThenDisconnect) {
  std::string error;
  const int fd = DialTcp("127.0.0.1", port(), 2000, &error);
  ASSERT_GE(fd, 0) << error;
  const char garbage[64] = "this is definitely not a NEC1 frame";
  ASSERT_EQ(WriteFull(fd, garbage, sizeof garbage, 2000), IoStatus::kOk);

  // Expect exactly one kError(kBadInput) frame, then EOF.
  FrameDecoder decoder;
  std::uint8_t buf[1024];
  bool saw_eof = false;
  for (int i = 0; i < 200 && !saw_eof; ++i) {
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r == 0) {
      saw_eof = true;
      break;
    }
    if (r > 0) decoder.Feed(buf, static_cast<std::size_t>(r));
  }
  EXPECT_TRUE(saw_eof);
  Frame reply;
  ASSERT_EQ(decoder.Next(&reply), DecodeStatus::kOk);
  EXPECT_EQ(reply.type, FrameType::kError);
  PayloadReader reader(reply.payload);
  std::uint32_t category = 0;
  ASSERT_TRUE(reader.U32(&category));
  EXPECT_EQ(category,
            static_cast<std::uint32_t>(runtime::ErrorCategory::kBadInput));
  EXPECT_NE(reader.RemainingText().find("malformed frame"),
            std::string::npos);
  EXPECT_EQ(stats().decode_errors, 1u);
  ::close(fd);
}

// ------------------------------------------------------- auth handshake

bool SendRawFrame(int fd, const Frame& frame) {
  std::string wire;
  EncodeFrame(frame, &wire);
  return WriteFull(fd, wire.data(), wire.size(), 2000) == IoStatus::kOk;
}

/// Blocks for exactly one frame; false on EOF/decode failure. Handshake
/// exchanges are strictly one-frame-per-turn, so nothing coalesces.
bool RecvRawFrame(int fd, Frame* out) {
  FrameDecoder decoder;
  std::uint8_t buf[512];
  DecodeStatus status = DecodeStatus::kNeedMore;
  for (int i = 0; i < 200 && status == DecodeStatus::kNeedMore; ++i) {
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r <= 0) return false;
    decoder.Feed(buf, static_cast<std::size_t>(r));
    status = decoder.Next(out);
  }
  return status == DecodeStatus::kOk;
}

Frame MakeHello() {
  Frame hello;
  hello.type = FrameType::kHello;
  PutU32(&hello.payload, kProtocolVersion);
  PutU32(&hello.payload, kProtocolVersion);
  return hello;
}

TEST(NetServerE2E, RestoreWithAFullChunkTailIsRejectedAndTheShardServesOn) {
  // An exporting shard ships only a partial tail. A restore whose tail
  // holds a whole chunk would leave a session that no strand ever pops,
  // so the shard refuses it as bad input and stays up: closing the
  // refused id is a plain unknown-session error, and a restore at the
  // boundary (one sample short of a chunk) still flushes and closes.
  SharedModel model;
  runtime::SessionManager manager(model.selector, model.encoder, {},
                                  model.ManagerOptions());
  NetServer server(&manager, {});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const std::size_t chunk_samples = manager.chunk_samples();

  const int fd = DialTcp("127.0.0.1", server.port(), 2000, &error);
  ASSERT_GE(fd, 0) << error;
  // One decoder for the whole exchange: a flush and its kClosed may
  // arrive in one read.
  FrameDecoder decoder;
  const auto next = [&](Frame* out) {
    std::uint8_t buf[4096];
    for (int i = 0; i < 400; ++i) {
      const DecodeStatus status = decoder.Next(out);
      if (status != DecodeStatus::kNeedMore) return status == DecodeStatus::kOk;
      const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
      if (r <= 0) return false;
      decoder.Feed(buf, static_cast<std::size_t>(r));
    }
    return false;
  };
  const auto send_restore = [&](std::uint64_t wire_sid, std::size_t tail) {
    SessionSnapshotPayload snap;
    snap.speaker_seed = 42;
    snap.ref_seed = 43;
    snap.chunks_done = 1;
    snap.tail.assign(tail, 0.25f);
    Frame frame;
    frame.type = FrameType::kRestoreSession;
    frame.session_id = wire_sid;
    PutSessionSnapshot(&frame.payload, snap);
    return SendRawFrame(fd, frame);
  };
  const auto expect_bad_input = [&](std::uint64_t wire_sid,
                                    const char* text) {
    Frame reply;
    ASSERT_TRUE(next(&reply));
    ASSERT_EQ(reply.type, FrameType::kError);
    EXPECT_EQ(reply.session_id, wire_sid);
    PayloadReader reader(reply.payload);
    std::uint32_t category = 0;
    ASSERT_TRUE(reader.U32(&category));
    EXPECT_EQ(category,
              static_cast<std::uint32_t>(runtime::ErrorCategory::kBadInput));
    EXPECT_NE(reader.RemainingText().find(text), std::string::npos)
        << reader.RemainingText();
  };
  Frame close;
  close.type = FrameType::kCloseSession;

  Frame reply;
  ASSERT_TRUE(SendRawFrame(fd, MakeHello()));
  ASSERT_TRUE(next(&reply));
  ASSERT_EQ(reply.type, FrameType::kHelloAck);

  ASSERT_TRUE(send_restore(7, chunk_samples));
  expect_bad_input(7, "full chunk");
  close.session_id = 7;
  ASSERT_TRUE(SendRawFrame(fd, close));
  expect_bad_input(7, "unknown wire session id");

  ASSERT_TRUE(send_restore(8, chunk_samples - 1));
  ASSERT_TRUE(next(&reply));
  ASSERT_EQ(reply.type, FrameType::kOpenAck);
  close.session_id = 8;
  ASSERT_TRUE(SendRawFrame(fd, close));
  std::size_t shadow_bytes = 0;
  for (;;) {
    ASSERT_TRUE(next(&reply));
    if (reply.type == FrameType::kClosed) break;
    ASSERT_EQ(reply.type, FrameType::kShadowData);
    shadow_bytes += reply.payload.size();
  }
  EXPECT_GT(shadow_bytes, 0u) << "the restored tail was not flushed";

  const NetStatsSnapshot stats = server.StatsSnapshot();
  EXPECT_EQ(stats.protocol_errors, 2u);
  EXPECT_EQ(stats.sessions_opened, 1u);
  EXPECT_EQ(stats.sessions_closed, 1u);
  ::close(fd);
  server.Stop();
}

TEST(NetAuthE2E, GoodSecretRoundTripsBitIdentically) {
  SharedModel model;
  runtime::SessionManager manager(model.selector, model.encoder, {},
                                  model.ManagerOptions());
  NetServer server(&manager, {.secret = "fleet-secret"});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const std::size_t chunk_samples = manager.chunk_samples();
  const std::size_t chunks = 2;
  std::vector<float> stream = MakeStream(42, 99, 2.0);
  stream.resize(chunks * chunk_samples, 0.0f);

  NetClient client;
  client.set_secret("fleet-secret");
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), 2000, &error))
      << error;
  HelloInfo hello;
  ASSERT_TRUE(client.Hello(&hello, 5000, &error)) << error;
  EXPECT_EQ(hello.version, kProtocolVersion);

  ASSERT_TRUE(client.OpenSession(1, 42, 43, 10000, &error)) << error;
  for (std::size_t c = 0; c < chunks; ++c) {
    ASSERT_TRUE(client.SubmitChunk(
        1, std::span<const float>(stream.data() + c * chunk_samples,
                                  chunk_samples),
        &error))
        << error;
  }
  ASSERT_TRUE(client.SendCloseSession(1, &error)) << error;
  ASSERT_TRUE(client.WaitDone(1, 60000, &error)) << error;

  const WireSessionState& state = client.session(1);
  ASSERT_TRUE(state.closed);
  ASSERT_FALSE(state.error.has_value());
  const std::vector<float> expected =
      ExpectedShadow(model, 42, 43, stream, chunk_samples, chunks);
  ASSERT_EQ(state.shadow.size(), expected.size());
  // The handshake must be pure preamble: authenticated serving changes
  // not a single shadow sample.
  EXPECT_EQ(std::memcmp(state.shadow.data(), expected.data(),
                        expected.size() * sizeof(float)),
            0);

  const NetStatsSnapshot stats = server.StatsSnapshot();
  EXPECT_EQ(stats.auth_ok, 1u);
  EXPECT_EQ(stats.auth_rejected, 0u);
  EXPECT_EQ(stats.sessions_closed, 1u);
  server.Stop();
}

TEST_P(NetAuthFaceE2E, WrongSecretIsRejectedAndCounted) {
  std::string error;
  NetClient client;
  client.set_secret("wrong-secret");
  ASSERT_TRUE(client.Connect("127.0.0.1", port(), 2000, &error)) << error;
  HelloInfo hello;
  EXPECT_FALSE(client.Hello(&hello, 5000, &error));
  EXPECT_TRUE(client.auth_rejected());
  ASSERT_TRUE(client.connection_error().has_value());
  EXPECT_EQ(client.connection_error()->category,
            static_cast<std::uint32_t>(
                runtime::ErrorCategory::kAuthRejected));

  const NetStatsSnapshot face = stats();
  EXPECT_EQ(face.auth_ok, 0u);
  EXPECT_EQ(face.auth_rejected, 1u);
  EXPECT_EQ(face.sessions_opened, 0u);
}

TEST(NetAuthE2E, RedialAfterRejectStartsFreshHandshake) {
  // Regression: Connect() must reset per-connection handshake state
  // (hello_info_, connection_error_, auth_rejected_). The router's
  // status prober reuses one NetClient across redials; stale state from
  // a failed attempt would otherwise fail — or skip — every later
  // handshake, freezing saturation tracking on a dead verdict.
  SharedModel model;
  runtime::SessionManager manager(model.selector, model.encoder, {},
                                  model.ManagerOptions());
  NetServer server(&manager, {.secret = "fleet-secret"});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  NetClient client;
  client.set_secret("wrong-secret");
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), 2000, &error))
      << error;
  HelloInfo hello;
  ASSERT_FALSE(client.Hello(&hello, 5000, &error));
  ASSERT_TRUE(client.auth_rejected());

  client.set_secret("fleet-secret");
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), 2000, &error))
      << error;
  EXPECT_FALSE(client.auth_rejected());
  EXPECT_FALSE(client.connection_error().has_value());
  EXPECT_FALSE(client.hello_info().has_value());
  ASSERT_TRUE(client.Hello(&hello, 5000, &error)) << error;
  EXPECT_EQ(hello.version, kProtocolVersion);
  // The redialed connection is fully usable: the post-hello status poll
  // (exactly the prober's sequence) must round-trip.
  ShardStatusPayload status;
  EXPECT_TRUE(client.QueryStatus(&status, 5000, &error)) << error;
  server.Stop();
}

TEST(NetAuthE2E, MissingSecretFailsAsAuthNotTimeout) {
  SharedModel model;
  runtime::SessionManager manager(model.selector, model.encoder, {},
                                  model.ManagerOptions());
  NetServer server(&manager, {.secret = "fleet-secret"});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  NetClient client;  // no secret set
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), 2000, &error))
      << error;
  HelloInfo hello;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.Hello(&hello, 5000, &error));
  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  // The challenge is answerable immediately ("I can't") — credential
  // failures must not masquerade as timeouts.
  EXPECT_LT(waited_ms, 2000.0);
  EXPECT_TRUE(client.auth_rejected());
  server.Stop();
}

TEST_P(NetAuthFaceE2E, UnauthenticatedFramesAreGated) {
  std::string error;
  // Skip the handshake and go straight for enrollment.
  const int fd = DialTcp("127.0.0.1", port(), 2000, &error);
  ASSERT_GE(fd, 0) << error;
  Frame open;
  open.type = FrameType::kOpenSession;
  open.session_id = 1;
  PutU64(&open.payload, 42);
  PutU64(&open.payload, 43);
  ASSERT_TRUE(SendRawFrame(fd, open));

  Frame reply;
  ASSERT_TRUE(RecvRawFrame(fd, &reply));
  EXPECT_EQ(reply.type, FrameType::kAuthReject);
  PayloadReader reader(reply.payload);
  std::uint32_t category = 0;
  ASSERT_TRUE(reader.U32(&category));
  EXPECT_EQ(category,
            static_cast<std::uint32_t>(
                runtime::ErrorCategory::kAuthRejected));
  // kAuthReject is terminal: the connection must be closed behind it.
  std::uint8_t byte = 0;
  EXPECT_EQ(ReadFull(fd, &byte, 1, 5000), IoStatus::kClosed);
  ::close(fd);

  const NetStatsSnapshot face = stats();
  EXPECT_EQ(face.auth_rejected, 1u);
  EXPECT_EQ(face.sessions_opened, 0u);
}

TEST_P(NetAuthFaceE2E, ReplayedTagFromAnotherConnectionIsRejected) {
  std::string error;
  // Connection A: complete a legitimate handshake, remembering the tag.
  const int fd_a = DialTcp("127.0.0.1", port(), 2000, &error);
  ASSERT_GE(fd_a, 0) << error;
  ASSERT_TRUE(SendRawFrame(fd_a, MakeHello()));
  Frame challenge_a;
  ASSERT_TRUE(RecvRawFrame(fd_a, &challenge_a));
  ASSERT_EQ(challenge_a.type, FrameType::kAuthChallenge);
  PayloadReader reader_a(challenge_a.payload);
  std::uint64_t nonce_a = 0;
  ASSERT_TRUE(reader_a.U64(&nonce_a));

  Frame response_a;
  response_a.type = FrameType::kAuthResponse;
  response_a.session_id = 5;
  const std::uint64_t tag_a = AuthTag("fleet-secret", nonce_a);
  PutU64(&response_a.payload, tag_a);
  ASSERT_TRUE(SendRawFrame(fd_a, response_a));
  Frame ack_a;
  ASSERT_TRUE(RecvRawFrame(fd_a, &ack_a));
  EXPECT_EQ(ack_a.type, FrameType::kHelloAck);

  // Connection B: replay A's tag. B was issued a different nonce, so the
  // eavesdropped tag proves nothing and must be rejected.
  const int fd_b = DialTcp("127.0.0.1", port(), 2000, &error);
  ASSERT_GE(fd_b, 0) << error;
  ASSERT_TRUE(SendRawFrame(fd_b, MakeHello()));
  Frame challenge_b;
  ASSERT_TRUE(RecvRawFrame(fd_b, &challenge_b));
  ASSERT_EQ(challenge_b.type, FrameType::kAuthChallenge);
  PayloadReader reader_b(challenge_b.payload);
  std::uint64_t nonce_b = 0;
  ASSERT_TRUE(reader_b.U64(&nonce_b));
  EXPECT_NE(nonce_b, nonce_a);  // fresh nonce per connection

  Frame response_b = response_a;  // verbatim replay
  ASSERT_TRUE(SendRawFrame(fd_b, response_b));
  Frame reply_b;
  ASSERT_TRUE(RecvRawFrame(fd_b, &reply_b));
  EXPECT_EQ(reply_b.type, FrameType::kAuthReject);
  std::uint8_t byte = 0;
  EXPECT_EQ(ReadFull(fd_b, &byte, 1, 5000), IoStatus::kClosed);
  ::close(fd_a);
  ::close(fd_b);

  const NetStatsSnapshot face = stats();
  EXPECT_EQ(face.auth_ok, 1u);
  EXPECT_EQ(face.auth_rejected, 1u);
}

// ------------------------------------------------------ router fleet e2e

TEST(RouterFleetE2E, ServesSessionsBitIdenticalAcrossTwoShards) {
// Sanitizer builds keep the same shape (2 shards, pooled streams, many
// connections) at reduced scale: on a 1-core box the full 64-session
// run under TSan lands right on the wall-clock budget (~303 s observed
// against a 300 s cap) — a flake, not a finding.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  const std::size_t kSessions = 16;
  const std::size_t kConnections = 4;
#else
  const std::size_t kSessions = 64;
  const std::size_t kConnections = 8;
#endif
  SharedModel model;
  Fleet fleet(model);

  LoadGenOptions options;
  options.endpoints = {"127.0.0.1:" + std::to_string(fleet.router->port())};
  options.sessions = kSessions;
  options.connections = kConnections;
  options.chunks_per_session = 2;
  options.stream_pool = 4;
  options.seed = 11;
  options.keep_shadows = true;
  options.max_seconds = 300.0;
  const LoadGenReport report = RunLoadGen(options);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.sessions_completed, kSessions);
  EXPECT_EQ(report.sessions_faulted, 0u);
  EXPECT_EQ(report.chunks_acked, 2u * kSessions);
  EXPECT_GT(report.chunks_per_sec, 0.0);
  EXPECT_GT(report.latency_p50_ms, 0.0);

  // Consistent hashing must actually use both shards.
  const auto statuses = fleet.router->ShardStatuses();
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_GT(statuses[0].sessions_assigned_total, 0u);
  EXPECT_GT(statuses[1].sessions_assigned_total, 0u);
  EXPECT_EQ(statuses[0].sessions_assigned_total +
                statuses[1].sessions_assigned_total,
            kSessions);

  // Bit-exactness: shard placement must not change a single sample.
  ExpectShadowsMatchInProcess(model, options, report);
}

/// Polls `done` every 5 ms for up to 10 s; returns its last answer.
template <typename Done>
bool WaitFor(Done&& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

TEST(RouterFleetE2E, OrderlyHangUpIsNotADropButAKilledPeerIs) {
  SharedModel model;
  Fleet fleet(model);
  // The two shards' counters, summed (the router's status probes hold
  // one more connection per shard open throughout).
  const auto shard_stats = [&] {
    NetStatsSnapshot sum;
    for (const auto& server : fleet.servers) {
      const NetStatsSnapshot s = server->StatsSnapshot();
      sum.connections_accepted += s.connections_accepted;
      sum.connections_active += s.connections_active;
      sum.connections_dropped += s.connections_dropped;
    }
    return sum;
  };
  const auto closed = [](const NetStatsSnapshot& s) {
    return s.connections_accepted - s.connections_active;
  };

  // Two sessions on two client connections, each closed in order before
  // its client hangs up. The router opens one upstream per connection.
  LoadGenOptions options;
  options.endpoints = {"127.0.0.1:" + std::to_string(fleet.router->port())};
  options.sessions = 2;
  options.connections = 2;
  options.chunks_per_session = 1;
  options.max_seconds = 120.0;
  const LoadGenReport report = RunLoadGen(options);
  ASSERT_TRUE(report.ok) << report.error;
  ASSERT_EQ(report.sessions_completed, 2u);
  ASSERT_TRUE(WaitFor([&] {
    return fleet.router->StatsSnapshot().connections_active == 0 &&
           closed(shard_stats()) >= 2;
  })) << "the router or the shards never saw the clients hang up";
  EXPECT_EQ(fleet.router->StatsSnapshot().connections_dropped, 0u);
  EXPECT_EQ(shard_stats().connections_dropped, 0u);

  // A peer killed mid-session: its socket closes with the session open.
  std::string error;
  NetClient client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", fleet.router->port(), 2000, &error))
      << error;
  HelloInfo hello;
  ASSERT_TRUE(client.Hello(&hello, 5000, &error)) << error;
  ASSERT_TRUE(client.OpenSession(1, 42, 43, 30000, &error)) << error;
  client.Close();
  ASSERT_TRUE(WaitFor([&] {
    return fleet.router->StatsSnapshot().connections_dropped >= 1 &&
           shard_stats().connections_dropped >= 1;
  })) << "the killed peer was not counted as dropped";
  EXPECT_EQ(fleet.router->StatsSnapshot().connections_dropped, 1u);
  EXPECT_EQ(shard_stats().connections_dropped, 1u);
}

TEST(RouterFleetE2E, AKilledClientReleasesItsShardSessions) {
  SharedModel model;
  Fleet fleet(model);
  std::string error;
  NetClient client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", fleet.router->port(), 2000, &error))
      << error;
  HelloInfo hello;
  ASSERT_TRUE(client.Hello(&hello, 5000, &error)) << error;
  ASSERT_TRUE(client.OpenSession(1, 42, 43, 30000, &error)) << error;
  ASSERT_TRUE(client.OpenSession(2, 44, 45, 30000, &error)) << error;
  const auto sessions = [&] {
    std::uint64_t active = 0;
    for (const auto& status : fleet.router->ShardStatuses()) {
      active += status.sessions_active;
    }
    return active;
  };
  EXPECT_EQ(sessions(), 2u);
  client.Close();
  EXPECT_TRUE(WaitFor([&] { return sessions() == 0; }))
      << "nec_router_shard_sessions kept a dead client's sessions";
}

TEST(RouterFleetE2E, KillingOneShardFaultsOnlyItsSessions) {
  SharedModel model;
  Fleet fleet(model);

  const std::size_t kSessions = 16;
  std::string error;
  NetClient client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", fleet.router->port(), 2000, &error))
      << error;
  HelloInfo hello;
  ASSERT_TRUE(client.Hello(&hello, 5000, &error)) << error;
  std::vector<float> chunk(hello.chunk_samples, 0.01f);

  for (std::uint64_t sid = 1; sid <= kSessions; ++sid) {
    ASSERT_TRUE(client.OpenSession(sid, 100 + sid, 200 + sid, 30000, &error))
        << error;
    ASSERT_TRUE(client.SubmitChunk(sid, chunk, &error)) << error;
  }
  // Wait until every session produced its first burst, so all are
  // genuinely live on their shard.
  for (std::uint64_t sid = 1; sid <= kSessions; ++sid) {
    while (client.session(sid).shadow.empty()) {
      bool timed_out = false;
      ASSERT_TRUE(client.PumpOnce(30000, &timed_out, &error)) << error;
      ASSERT_FALSE(client.session(sid).error.has_value());
    }
  }

  auto statuses = fleet.router->ShardStatuses();
  const std::uint64_t on_dead_shard = statuses[0].sessions_active;
  const std::uint64_t on_live_shard = statuses[1].sessions_active;
  ASSERT_EQ(on_dead_shard + on_live_shard, kSessions);
  ASSERT_GT(on_dead_shard, 0u);
  ASSERT_GT(on_live_shard, 0u);

  // Kill shard 0 mid-run. Its TCP connections drop; the router must
  // fault exactly the sessions pinned to it — and nothing else.
  fleet.servers[0]->Stop();
  auto count_faulted = [&] {
    std::size_t n = 0;
    for (std::uint64_t sid = 1; sid <= kSessions; ++sid) {
      if (client.session(sid).error.has_value()) ++n;
    }
    return n;
  };
  while (count_faulted() < on_dead_shard) {
    bool timed_out = false;
    ASSERT_TRUE(client.PumpOnce(30000, &timed_out, &error)) << error;
    ASSERT_FALSE(timed_out) << "router never faulted the dead shard";
  }

  // Every faulted session carries the runtime taxonomy; drive the
  // survivors to an orderly close to prove the blast radius stopped at
  // the shard boundary.
  std::size_t completed = 0;
  std::size_t faulted = 0;
  for (std::uint64_t sid = 1; sid <= kSessions; ++sid) {
    const WireSessionState& state = client.session(sid);
    if (state.error.has_value()) {
      ++faulted;
      EXPECT_EQ(state.error->category,
                static_cast<std::uint32_t>(
                    runtime::ErrorCategory::kInvariant));
      EXPECT_NE(state.error->message.find("shard"), std::string::npos);
      continue;
    }
    ASSERT_TRUE(client.SendCloseSession(sid, &error)) << error;
    ASSERT_TRUE(client.WaitDone(sid, 60000, &error)) << error;
    const WireSessionState& done = client.session(sid);
    EXPECT_FALSE(done.error.has_value())
        << "survivor session " << sid << " faulted: " << done.error->message;
    EXPECT_TRUE(done.closed);
    EXPECT_FALSE(done.shadow.empty());
    ++completed;
  }
  EXPECT_EQ(faulted, on_dead_shard);
  EXPECT_EQ(completed, on_live_shard);
}

TEST(RouterFleetE2E, DrainingReshardMigratesEverySessionWithZeroFaults) {
  SharedModel model;
  Fleet fleet(model, {.secret = "fleet-secret"});

  const std::size_t kSessions = 8;
  std::string error;
  NetClient client;
  client.set_secret("fleet-secret");
  ASSERT_TRUE(
      client.Connect("127.0.0.1", fleet.router->port(), 2000, &error))
      << error;
  HelloInfo hello;
  ASSERT_TRUE(client.Hello(&hello, 5000, &error)) << error;

  const std::size_t chunk_samples = hello.chunk_samples;
  const std::size_t chunks = 2;
  const double seconds =
      static_cast<double>(chunks * chunk_samples) / 16000.0;

  // Each session gets its own 2-chunk stream. The first chunk plus HALF
  // of the second go in before the drain, so every migrating session
  // carries real mid-stream state: a latched modulation gain AND a
  // buffered partial-chunk tail that must cross in the snapshot.
  std::vector<std::vector<float>> streams(kSessions);
  for (std::uint64_t sid = 1; sid <= kSessions; ++sid) {
    auto& stream = streams[sid - 1];
    stream = MakeStream(100 + sid, 900 + sid, seconds);
    stream.resize(chunks * chunk_samples, 0.0f);
    ASSERT_TRUE(client.OpenSession(sid, 100 + sid, 200 + sid, 30000, &error))
        << error;
    ASSERT_TRUE(client.SubmitChunk(
        sid, std::span<const float>(stream.data(), chunk_samples), &error))
        << error;
    ASSERT_TRUE(client.SubmitChunk(
        sid,
        std::span<const float>(stream.data() + chunk_samples,
                               chunk_samples / 2),
        &error))
        << error;
  }
  // First shadow burst per session proves each is genuinely live (and
  // latched) on its shard before the drain starts.
  for (std::uint64_t sid = 1; sid <= kSessions; ++sid) {
    while (client.session(sid).shadow.empty()) {
      bool timed_out = false;
      ASSERT_TRUE(client.PumpOnce(30000, &timed_out, &error)) << error;
      ASSERT_FALSE(client.session(sid).error.has_value());
    }
  }

  auto statuses = fleet.router->ShardStatuses();
  const std::size_t victim =
      statuses[0].sessions_active >= statuses[1].sessions_active ? 0 : 1;
  const std::uint64_t moving = statuses[victim].sessions_active;
  ASSERT_GT(moving, 0u);
  ASSERT_EQ(statuses[0].sessions_active + statuses[1].sessions_active,
            kSessions);

  std::string drain_error;
  EXPECT_FALSE(fleet.router->DrainShard("127.0.0.1:1", &drain_error));
  EXPECT_NE(drain_error.find("unknown shard"), std::string::npos);
  ASSERT_TRUE(fleet.router->DrainShard(fleet.ShardLabel(victim), &error))
      << error;
  // Idempotent: a second drain of the same shard is a no-op, not an error.
  ASSERT_TRUE(fleet.router->DrainShard(fleet.ShardLabel(victim), &error));

  // The drain quiesces each session, snapshots it, and restores it on
  // the survivor — all while the client keeps pumping. Zero faults.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  for (;;) {
    statuses = fleet.router->ShardStatuses();
    if (statuses[victim].drained) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "drain never completed";
    bool timed_out = false;
    ASSERT_TRUE(client.PumpOnce(50, &timed_out, &error)) << error;
  }
  EXPECT_TRUE(statuses[victim].draining);
  EXPECT_EQ(statuses[victim].sessions_active, 0u);
  EXPECT_EQ(statuses[victim].sessions_migrated, moving);
  EXPECT_EQ(fleet.router->StatsSnapshot().sessions_migrated, moving);
  for (std::uint64_t sid = 1; sid <= kSessions; ++sid) {
    EXPECT_FALSE(client.session(sid).error.has_value())
        << "session " << sid << " faulted during drain: "
        << client.session(sid).error->message;
  }

  // Finish every stream across the migration boundary and compare
  // against the single-manager reference: migration must not change a
  // single sample.
  for (std::uint64_t sid = 1; sid <= kSessions; ++sid) {
    const auto& stream = streams[sid - 1];
    ASSERT_TRUE(client.SubmitChunk(
        sid,
        std::span<const float>(
            stream.data() + chunk_samples + chunk_samples / 2,
            chunk_samples - chunk_samples / 2),
        &error))
        << error;
    ASSERT_TRUE(client.SendCloseSession(sid, &error)) << error;
  }
  for (std::uint64_t sid = 1; sid <= kSessions; ++sid) {
    const auto& stream = streams[sid - 1];
    ASSERT_TRUE(client.WaitDone(sid, 120000, &error)) << error;
    const WireSessionState& state = client.session(sid);
    ASSERT_TRUE(state.closed);
    ASSERT_FALSE(state.error.has_value())
        << "session " << sid << ": " << state.error->message;
    const std::vector<float> expected = ExpectedShadow(
        model, 100 + sid, 200 + sid, stream, chunk_samples, chunks);
    ASSERT_EQ(state.shadow.size(), expected.size()) << "session " << sid;
    ASSERT_EQ(std::memcmp(state.shadow.data(), expected.data(),
                          expected.size() * sizeof(float)),
              0)
        << "session " << sid << " diverged across migration";
  }
  EXPECT_EQ(fleet.router->StatsSnapshot().sessions_faulted, 0u);
}

TEST(RouterFleetE2E, SaturatedShardShedsTypedOverloadThenRecovers) {
  SharedModel model;
  Fleet fleet(model, {.secret = "",
                      .saturate_queue_depth = 8,
                      .recover_queue_depth = 0,
                      .recover_statuses = 2});

  std::string error;
  NetClient client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", fleet.router->port(), 2000, &error))
      << error;
  HelloInfo hello;
  ASSERT_TRUE(client.Hello(&hello, 5000, &error)) << error;

  auto wait_for_saturated = [&](std::size_t s, bool want) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
      if (fleet.router->ShardStatuses()[s].saturated == want) return true;
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  };

  // Saturate shard 0 only: placement must route around it, not shed.
  fleet.servers[0]->set_status_depth_override(64);
  ASSERT_TRUE(wait_for_saturated(0, true));
  EXPECT_FALSE(fleet.router->ShardStatuses()[1].saturated);
  for (std::uint64_t sid = 1; sid <= 4; ++sid) {
    ASSERT_TRUE(client.OpenSession(sid, 100 + sid, 200 + sid, 60000, &error))
        << error;
  }
  auto statuses = fleet.router->ShardStatuses();
  EXPECT_EQ(statuses[0].sessions_active, 0u);
  EXPECT_EQ(statuses[1].sessions_active, 4u);

  // Saturate the whole fleet: a new open is shed IMMEDIATELY with a
  // typed kOverload — no buffering toward a shard that already said no.
  fleet.servers[1]->set_status_depth_override(64);
  ASSERT_TRUE(wait_for_saturated(1, true));
  EXPECT_FALSE(client.OpenSession(99, 7, 8, 10000, &error));
  const WireSessionState& shed = client.session(99);
  ASSERT_TRUE(shed.error.has_value());
  EXPECT_EQ(shed.error->category,
            static_cast<std::uint32_t>(runtime::ErrorCategory::kOverload));
  EXPECT_NE(shed.error->message.find("saturated"), std::string::npos)
      << shed.error->message;
  EXPECT_GE(fleet.router->StatsSnapshot().overload_shed, 1u);

  // No thrash while the load report stays high: sample across several
  // probe intervals — the flag must hold steady.
  for (int i = 0; i < 6; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_TRUE(fleet.router->ShardStatuses()[1].saturated);
  }

  // Recovery: drop shard 1's reported depth back to the truth (~0) and
  // the hysteresis readmits it after consecutive calm reports; a new
  // open then succeeds and lands there.
  fleet.servers[1]->set_status_depth_override(-1);
  ASSERT_TRUE(wait_for_saturated(1, false));
  ASSERT_TRUE(client.OpenSession(100, 7, 8, 60000, &error)) << error;
  statuses = fleet.router->ShardStatuses();
  EXPECT_EQ(statuses[1].sessions_active, 5u);
  EXPECT_EQ(statuses[0].sessions_active, 0u);
}

// ----------------------------------------------------------- obs satellite

TEST(HttpGetTimeouts, RefusedConnectionFailsFastWithDistinctMessage) {
  int port = 0;
  {
    TcpListener listener;
    std::string error;
    ASSERT_TRUE(listener.Listen("127.0.0.1", 0, &error)) << error;
    port = listener.port();
  }
  std::string body, error;
  int status = 0;
  obs::HttpGetOptions options;
  options.connect_timeout_ms = 500;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(
      obs::HttpGet("127.0.0.1", port, "/", &body, &status, &error, options));
  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(waited_ms, 2000.0);
  EXPECT_NE(error.find("refused"), std::string::npos) << error;
}

// A submit over the wire carries its trace flow id in a kTraceContext
// frame, and the shard adopts it VERBATIM: the client's "client.submit"
// span and the shard's "shard.compute" span share one flow id, with the
// flow-begin recorded client-side and the flow-end shard-side. That
// shared id is what `necctl trace` relies on to stitch per-process rings
// into one cross-process arrow.
TEST(NetTraceE2E, WireFlowIdLinksClientSubmitToShardCompute) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Disable();
  rec.Clear();
  rec.Enable(/*ring_capacity=*/1024);

  SharedModel model;
  runtime::SessionManager manager(model.selector, model.encoder, {},
                                  model.ManagerOptions());
  NetServer server(&manager, {});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const std::size_t chunk_samples = manager.chunk_samples();
  std::vector<float> stream = MakeStream(42, 5, 1.0);
  stream.resize(chunk_samples, 0.0f);

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), 2000, &error))
      << error;
  HelloInfo hello;
  ASSERT_TRUE(client.Hello(&hello, 5000, &error)) << error;
  ASSERT_TRUE(client.OpenSession(1, 42, 43, 10000, &error)) << error;
  ASSERT_TRUE(client.SubmitChunk(
      1, std::span<const float>(stream.data(), chunk_samples), &error))
      << error;
  ASSERT_TRUE(client.SendCloseSession(1, &error)) << error;
  ASSERT_TRUE(client.WaitDone(1, 60000, &error)) << error;
  server.Stop();

  const std::string json = rec.ChromeTraceJson();
  rec.Disable();
  rec.Clear();

  // The client minted exactly one flow this test; find it via the flow
  // begin it recorded, then demand the shard closed the SAME id.
  const std::size_t begin_at = json.find("\"ph\":\"s\",\"id\":");
  ASSERT_NE(begin_at, std::string::npos) << json;
  const std::uint64_t flow = std::strtoull(
      json.c_str() + begin_at + std::strlen("\"ph\":\"s\",\"id\":"), nullptr,
      10);
  ASSERT_NE(flow, 0u);
  const std::string id_tag = ",\"id\":" + std::to_string(flow);
  EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\"" + id_tag),
            std::string::npos)
      << json;

  // Both endpoint spans carry the shared flow id.
  const auto span_has_flow = [&](const char* name) {
    const std::size_t at = json.find("\"name\":\"" + std::string(name) + "\"");
    if (at == std::string::npos) return false;
    const std::size_t end = json.find('\n', at);
    return json.substr(at, end - at).find(id_tag) != std::string::npos;
  };
  EXPECT_TRUE(span_has_flow("client.submit")) << json;
  EXPECT_TRUE(span_has_flow("shard.compute")) << json;
}

}  // namespace
}  // namespace nec::net

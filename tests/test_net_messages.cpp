#include "net/messages.hpp"

#include <gtest/gtest.h>

#include "alloc_counter.hpp"

namespace slmob {
namespace {

template <typename T>
T round_trip(const T& msg) {
  const auto bytes = encode_message(Message{msg});
  const Message decoded = decode_message(bytes);
  return std::get<T>(decoded);
}

TEST(Messages, LoginRequestRoundTrip) {
  LoginRequest m;
  m.first_name = "slmob";
  m.last_name = "crawler";
  m.password_hash = 0xdeadbeefcafe1234ULL;
  m.circuit_code = 777;
  const auto r = round_trip(m);
  EXPECT_EQ(r.first_name, m.first_name);
  EXPECT_EQ(r.last_name, m.last_name);
  EXPECT_EQ(r.password_hash, m.password_hash);
  EXPECT_EQ(r.circuit_code, m.circuit_code);
}

TEST(Messages, LoginResponseRoundTrip) {
  LoginResponse m;
  m.ok = true;
  m.agent_id = 42;
  m.region_name = "Dance";
  m.spawn_x = 1.5f;
  m.spawn_y = 2.5f;
  m.spawn_z = 22.0f;
  const auto r = round_trip(m);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.agent_id, 42u);
  EXPECT_EQ(r.region_name, "Dance");
  EXPECT_EQ(r.spawn_x, 1.5f);
}

TEST(Messages, LoginResponseErrorRoundTrip) {
  LoginResponse m;
  m.ok = false;
  m.error = "region full";
  const auto r = round_trip(m);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "region full");
}

TEST(Messages, AgentUpdateRoundTrip) {
  AgentUpdate m;
  m.agent_id = 9;
  m.target_x = 100.0f;
  m.target_y = 200.0f;
  m.target_z = 22.0f;
  m.speed = 3.2f;
  m.flags = kAgentFlagSit;
  const auto r = round_trip(m);
  EXPECT_EQ(r.agent_id, 9u);
  EXPECT_EQ(r.speed, 3.2f);
  EXPECT_EQ(r.flags, kAgentFlagSit);
}

TEST(Messages, CoarseLocationUpdateRoundTrip) {
  CoarseLocationUpdate m;
  for (std::uint32_t i = 0; i < 100; ++i) {
    m.entries.push_back({i, static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i * 2),
                         static_cast<std::uint8_t>(5)});
  }
  const auto r = round_trip(m);
  ASSERT_EQ(r.entries.size(), 100u);
  EXPECT_EQ(r.entries[50].agent_id, 50u);
  EXPECT_EQ(r.entries[50].x, 50);
  EXPECT_EQ(r.entries[50].y, 100);
}

TEST(Messages, ChatRoundTrips) {
  ChatFromViewer v;
  v.agent_id = 3;
  v.message = "hi :)";
  v.channel = 0;
  EXPECT_EQ(round_trip(v).message, "hi :)");

  ChatFromSimulator s;
  s.from_agent = 4;
  s.from_name = "agent-4";
  s.message = "hello";
  const auto r = round_trip(s);
  EXPECT_EQ(r.from_agent, 4u);
  EXPECT_EQ(r.from_name, "agent-4");
}

TEST(Messages, AllTypesHaveDistinctTags) {
  EXPECT_EQ(message_type(Message{LoginRequest{}}), MessageType::kLoginRequest);
  EXPECT_EQ(message_type(Message{LoginResponse{}}), MessageType::kLoginResponse);
  EXPECT_EQ(message_type(Message{UseCircuitCode{}}), MessageType::kUseCircuitCode);
  EXPECT_EQ(message_type(Message{RegionHandshake{}}), MessageType::kRegionHandshake);
  EXPECT_EQ(message_type(Message{CompleteAgentMovement{}}),
            MessageType::kCompleteAgentMovement);
  EXPECT_EQ(message_type(Message{AgentUpdate{}}), MessageType::kAgentUpdate);
  EXPECT_EQ(message_type(Message{CoarseLocationUpdate{}}),
            MessageType::kCoarseLocationUpdate);
  EXPECT_EQ(message_type(Message{ChatFromViewer{}}), MessageType::kChatFromViewer);
  EXPECT_EQ(message_type(Message{ChatFromSimulator{}}), MessageType::kChatFromSimulator);
  EXPECT_EQ(message_type(Message{LogoutRequest{}}), MessageType::kLogoutRequest);
  EXPECT_EQ(message_type(Message{KickUser{}}), MessageType::kKickUser);
}

TEST(Messages, DecodeUnknownTypeThrows) {
  std::vector<std::uint8_t> bytes{0xff};
  EXPECT_THROW((void)decode_message(bytes), DecodeError);
}

TEST(Messages, DecodeTruncatedThrows) {
  auto bytes = encode_message(Message{LoginResponse{}});
  bytes.resize(3);
  EXPECT_THROW((void)decode_message(bytes), DecodeError);
}

// A CoarseLocationUpdate claiming 65535 entries with none behind them: both
// decoders refuse it before sizing anything by the count (it would ask for
// 65535 x 8 bytes).
TEST(Messages, InflatedCoarseCountThrowsBeforeAllocating) {
  const std::vector<std::uint8_t> bytes{
      static_cast<std::uint8_t>(MessageType::kCoarseLocationUpdate), 0xff, 0xff};
  const auto bytes_allocated_by = [](const auto& decode) {
    const std::size_t before = bench::allocated_bytes();
    bool threw = false;
    try {
      decode();
    } catch (const DecodeError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
    return bench::allocated_bytes() - before;
  };
  Message out;
  // The exception's message is the only allocation left.
  EXPECT_LT(bytes_allocated_by([&] { decode_message_into(bytes, out); }), 1024u);
  EXPECT_LT(bytes_allocated_by([&] { (void)decode_message(bytes); }), 1024u);
}

TEST(Coarse, QuantizationFloorsToMetres) {
  const CoarseEntry e = quantize_coarse(1, 12.7, 200.9, 22.0, false);
  EXPECT_EQ(e.x, 12);
  EXPECT_EQ(e.y, 200);
  EXPECT_EQ(e.z4, 5);  // 22 / 4 = 5.5 -> 5
  const CoarsePosition p = dequantize_coarse(e);
  EXPECT_DOUBLE_EQ(p.x, 12.0);
  EXPECT_DOUBLE_EQ(p.y, 200.0);
  EXPECT_DOUBLE_EQ(p.z, 20.0);
}

TEST(Coarse, SittingReportsOrigin) {
  const CoarseEntry e = quantize_coarse(1, 100.0, 100.0, 22.0, true);
  EXPECT_EQ(e.x, 0);
  EXPECT_EQ(e.y, 0);
  EXPECT_EQ(e.z4, 0);
}

TEST(Coarse, ClampsOutOfRange) {
  const CoarseEntry e = quantize_coarse(1, -5.0, 300.0, 2000.0, false);
  EXPECT_EQ(e.x, 0);
  EXPECT_EQ(e.y, 255);
  EXPECT_EQ(e.z4, 255);
}

TEST(Coarse, QuantizationErrorBounded) {
  for (double x = 0.0; x < 256.0; x += 0.37) {
    const CoarseEntry e = quantize_coarse(1, x, x, 22.0, false);
    const CoarsePosition p = dequantize_coarse(e);
    EXPECT_LE(std::abs(p.x - x), 1.0);
  }
}

}  // namespace
}  // namespace slmob

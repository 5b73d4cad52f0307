#include "net/messages.hpp"

#include <algorithm>
#include <cmath>

namespace slmob {
namespace {

// A CoarseLocationUpdate entry: u32 agent id, then x, y and z/4 as u8.
constexpr std::size_t kCoarseEntryBytes = 7;

struct TypeVisitor {
  MessageType operator()(const LoginRequest&) const { return MessageType::kLoginRequest; }
  MessageType operator()(const LoginResponse&) const { return MessageType::kLoginResponse; }
  MessageType operator()(const UseCircuitCode&) const { return MessageType::kUseCircuitCode; }
  MessageType operator()(const RegionHandshake&) const {
    return MessageType::kRegionHandshake;
  }
  MessageType operator()(const CompleteAgentMovement&) const {
    return MessageType::kCompleteAgentMovement;
  }
  MessageType operator()(const AgentUpdate&) const { return MessageType::kAgentUpdate; }
  MessageType operator()(const CoarseLocationUpdate&) const {
    return MessageType::kCoarseLocationUpdate;
  }
  MessageType operator()(const ChatFromViewer&) const { return MessageType::kChatFromViewer; }
  MessageType operator()(const ChatFromSimulator&) const {
    return MessageType::kChatFromSimulator;
  }
  MessageType operator()(const LogoutRequest&) const { return MessageType::kLogoutRequest; }
  MessageType operator()(const KickUser&) const { return MessageType::kKickUser; }
};

void encode_body(ByteWriter& w, const LoginRequest& m) {
  w.str(m.first_name);
  w.str(m.last_name);
  w.u64(m.password_hash);
  w.u32(m.circuit_code);
}

void encode_body(ByteWriter& w, const LoginResponse& m) {
  w.u8(m.ok ? 1 : 0);
  w.u32(m.agent_id);
  w.str(m.region_name);
  w.f32(m.spawn_x);
  w.f32(m.spawn_y);
  w.f32(m.spawn_z);
  w.str(m.error);
}

void encode_body(ByteWriter& w, const UseCircuitCode& m) {
  w.u32(m.circuit_code);
  w.u32(m.agent_id);
}

void encode_body(ByteWriter& w, const RegionHandshake& m) {
  w.str(m.region_name);
  w.f32(m.region_size);
  w.u32(m.capacity);
}

void encode_body(ByteWriter& w, const CompleteAgentMovement& m) { w.u32(m.agent_id); }

void encode_body(ByteWriter& w, const AgentUpdate& m) {
  w.u32(m.agent_id);
  w.f32(m.target_x);
  w.f32(m.target_y);
  w.f32(m.target_z);
  w.f32(m.speed);
  w.u8(m.flags);
}

void encode_body(ByteWriter& w, const CoarseLocationUpdate& m) {
  if (m.entries.size() > 0xffff) throw std::length_error("CoarseLocationUpdate too large");
  w.u16(static_cast<std::uint16_t>(m.entries.size()));
  for (const auto& e : m.entries) {
    w.u32(e.agent_id);
    w.u8(e.x);
    w.u8(e.y);
    w.u8(e.z4);
  }
}

void encode_body(ByteWriter& w, const ChatFromViewer& m) {
  w.u32(m.agent_id);
  w.str(m.message);
  w.u8(m.channel);
}

void encode_body(ByteWriter& w, const ChatFromSimulator& m) {
  w.u32(m.from_agent);
  w.str(m.from_name);
  w.str(m.message);
}

void encode_body(ByteWriter& w, const LogoutRequest& m) { w.u32(m.agent_id); }

void encode_body(ByteWriter& w, const KickUser& m) { w.str(m.reason); }

LoginRequest decode_login_request(ByteReader& r) {
  LoginRequest m;
  m.first_name = r.str();
  m.last_name = r.str();
  m.password_hash = r.u64();
  m.circuit_code = r.u32();
  return m;
}

LoginResponse decode_login_response(ByteReader& r) {
  LoginResponse m;
  m.ok = r.u8() != 0;
  m.agent_id = r.u32();
  m.region_name = r.str();
  m.spawn_x = r.f32();
  m.spawn_y = r.f32();
  m.spawn_z = r.f32();
  m.error = r.str();
  return m;
}

Message decode_rest(ByteReader& r, MessageType type);

}  // namespace

MessageType message_type(const Message& msg) { return std::visit(TypeVisitor{}, msg); }

std::vector<std::uint8_t> encode_message(const Message& msg) {
  ByteWriter w;
  encode_message_to(msg, w);
  return w.take();
}

void encode_message_to(const Message& msg, ByteWriter& w) {
  w.clear();
  w.u8(static_cast<std::uint8_t>(message_type(msg)));
  std::visit([&w](const auto& m) { encode_body(w, m); }, msg);
}

Message decode_message(std::span<const std::uint8_t> bytes) {
  Message out;
  decode_message_into(bytes, out);
  return out;
}

void decode_message_into(std::span<const std::uint8_t> bytes, Message& out) {
  ByteReader r(bytes);
  const auto type = static_cast<MessageType>(r.u8());
  if (type == MessageType::kCoarseLocationUpdate) {
    // The one message received every coarse interval on every circuit:
    // decode it in place so the entries vector's capacity is reused.
    auto* m = std::get_if<CoarseLocationUpdate>(&out);
    if (m == nullptr) {
      out = CoarseLocationUpdate{};
      m = &std::get<CoarseLocationUpdate>(out);
    }
    m->entries.clear();
    // The count comes from the datagram: it is checked against the bytes
    // left before anything is sized by it.
    const std::uint16_t n = r.u16();
    if (kCoarseEntryBytes * n > r.remaining()) {
      throw DecodeError("decode_message: truncated CoarseLocationUpdate");
    }
    m->entries.reserve(n);
    for (std::uint16_t i = 0; i < n; ++i) {
      CoarseEntry e;
      e.agent_id = r.u32();
      e.x = r.u8();
      e.y = r.u8();
      e.z4 = r.u8();
      m->entries.push_back(e);
    }
    return;
  }
  out = decode_rest(r, type);
}

namespace {

// Every type but CoarseLocationUpdate, which decode_message_into decodes in
// place.
Message decode_rest(ByteReader& r, MessageType type) {
  switch (type) {
    case MessageType::kLoginRequest:
      return decode_login_request(r);
    case MessageType::kLoginResponse:
      return decode_login_response(r);
    case MessageType::kUseCircuitCode: {
      UseCircuitCode m;
      m.circuit_code = r.u32();
      m.agent_id = r.u32();
      return m;
    }
    case MessageType::kRegionHandshake: {
      RegionHandshake m;
      m.region_name = r.str();
      m.region_size = r.f32();
      m.capacity = r.u32();
      return m;
    }
    case MessageType::kCompleteAgentMovement: {
      CompleteAgentMovement m;
      m.agent_id = r.u32();
      return m;
    }
    case MessageType::kAgentUpdate: {
      AgentUpdate m;
      m.agent_id = r.u32();
      m.target_x = r.f32();
      m.target_y = r.f32();
      m.target_z = r.f32();
      m.speed = r.f32();
      m.flags = r.u8();
      return m;
    }
    case MessageType::kCoarseLocationUpdate:
      break;
    case MessageType::kChatFromViewer: {
      ChatFromViewer m;
      m.agent_id = r.u32();
      m.message = r.str();
      m.channel = r.u8();
      return m;
    }
    case MessageType::kChatFromSimulator: {
      ChatFromSimulator m;
      m.from_agent = r.u32();
      m.from_name = r.str();
      m.message = r.str();
      return m;
    }
    case MessageType::kLogoutRequest: {
      LogoutRequest m;
      m.agent_id = r.u32();
      return m;
    }
    case MessageType::kKickUser: {
      KickUser m;
      m.reason = r.str();
      return m;
    }
  }
  throw DecodeError("decode_message: unknown message type");
}

}  // namespace

CoarseEntry quantize_coarse(std::uint32_t agent_id, double x, double y, double z,
                            bool sitting) {
  CoarseEntry e;
  e.agent_id = agent_id;
  if (sitting) return e;  // sitting avatars report the origin
  const auto clamp_u8 = [](double v) {
    return static_cast<std::uint8_t>(std::clamp(std::floor(v), 0.0, 255.0));
  };
  e.x = clamp_u8(x);
  e.y = clamp_u8(y);
  e.z4 = clamp_u8(z / 4.0);
  return e;
}

CoarsePosition dequantize_coarse(const CoarseEntry& entry) {
  return {static_cast<double>(entry.x), static_cast<double>(entry.y),
          static_cast<double>(entry.z4) * 4.0};
}

}  // namespace slmob

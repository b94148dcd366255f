#include "net/transport.hpp"

namespace ipd {

std::optional<Message> FramedConnection::receive() {
  for (;;) {
    if (std::optional<Frame> frame = reader_.next()) {
      inbound_trace_ = frame->trace.value_or(obs::TraceContext{});
      return decode_message(*frame);
    }
    std::uint8_t buf[16 << 10];
    const std::size_t n = transport_.read_some(MutByteView(buf, sizeof buf));
    if (n == 0) {
      // Clean EOF mid-frame is a truncation, not a quiet goodbye.
      reader_.finish();
      return std::nullopt;
    }
    bytes_received_ += n;
    reader_.feed(ByteView(buf, n));
  }
}

std::size_t FramedConnection::send(const Message& message) {
  const Bytes wire = encode_message(
      message, outbound_trace_.valid() ? &outbound_trace_ : nullptr);
  transport_.write_all(wire);
  return wire.size();
}

}  // namespace ipd

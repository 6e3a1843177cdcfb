// Fixture (analyzed as src/tcp/fixture.cc, a charged layer): a segment written from a
// header template with no Charge* call in the same function must produce a [charge]
// finding.
#include <cstdint>
#include <vector>

namespace tcprx {

inline std::vector<uint8_t> WriteAck(const TcpFrameTemplate& tmpl, uint32_t ack) {
  return WriteTcpFrame(tmpl, 1, {0, ack, kTcpAck, 65535}, {}, {}, false);
}

}  // namespace tcprx
